package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sidr/internal/cluster"
	"sidr/internal/core"
	"sidr/internal/datagen"
	"sidr/internal/exec"
	"sidr/internal/mapreduce"
	"sidr/internal/metrics"
	"sidr/internal/ncfile"
	"sidr/internal/query"
)

// median-shuffle: the clustered runtime with its default settings
// (batched fetch, one spill replica) — a coordinator and two in-process
// cluster.Workers on loopback HTTP — runs median, the paper's Query 1
// operator. Median is holistic, so nothing is combined: every source value
// crosses v3 encode → pack commit → replicate → fetch → decode → merge →
// reduce, and Map read is a minor share.
const (
	shuffleReducers = 8
	shuffleWorkers  = 2
	shuffleSetups   = 9
	// shuffleRegisterEach is how many registrations follow each job of an
	// untraced run, for register_s; one takes milliseconds.
	shuffleRegisterEach = 3
	// shuffleLimit is the goodput latency limit, stated in BENCHMARK.json.
	shuffleLimit = 4 * time.Second
)

func shuffleShape(scale float64) []int64 {
	return []int64{max(4, int64(8*scale)), 256, 256}
}

// miniCluster is a coordinator with loopback workers.
type miniCluster struct {
	coord   *cluster.Coordinator
	reg     *metrics.Registry
	workers []*cluster.Worker
	servers []*http.Server
	served  sync.WaitGroup
}

// startCluster starts the coordinator and workers. With a tracer, worker
// handlers and the coordinator's transport are wrapped to record spans;
// the wrapped transport is cluster.NewTransport without a response-header
// bound, since one client then carries both dispatch and shuffle.
func startCluster(dir string, tr *tracer, onMap func(traceID string, body []byte)) (*miniCluster, error) {
	mc := &miniCluster{reg: metrics.New()}
	cfg := cluster.CoordinatorConfig{
		// Workers are registered directly and send no heartbeats; a long
		// timeout keeps them alive for the run.
		HeartbeatTimeout: time.Hour,
		Metrics:          mc.reg,
	}
	if tr != nil {
		cfg.Client = &http.Client{Transport: &tracingTransport{
			t: tr, next: cluster.NewTransport(0, -1),
			name:   func(r *http.Request) string { return "client." + clusterRoute(r) },
			onBody: onMap,
		}}
	}
	mc.coord = cluster.NewCoordinator(cfg)
	for i := 0; i < shuffleWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		spill := filepath.Join(dir, name)
		if err := os.MkdirAll(spill, 0o755); err != nil {
			mc.stop()
			return nil, err
		}
		w, err := cluster.NewWorker(cluster.WorkerConfig{Name: name, SpillDir: spill})
		if err != nil {
			mc.stop()
			return nil, err
		}
		mc.workers = append(mc.workers, w)
		var h http.Handler = w
		if tr != nil {
			h = &tracingHandler{t: tr, next: w,
				name:  func(r *http.Request) string { return "worker." + clusterRoute(r) },
				trace: pathJobID,
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			mc.stop()
			return nil, err
		}
		srv := &http.Server{Handler: h}
		mc.servers = append(mc.servers, srv)
		mc.served.Add(1)
		go func() {
			defer mc.served.Done()
			_ = srv.Serve(ln) // returns http.ErrServerClosed on stop
		}()
		if err := mc.coord.Register(name, "http://"+ln.Addr().String()); err != nil {
			mc.stop()
			return nil, err
		}
	}
	return mc, nil
}

// stop shuts every server, worker and the coordinator down and waits for
// the serving goroutines to exit.
func (mc *miniCluster) stop() {
	for _, s := range mc.servers {
		s.Close()
	}
	mc.served.Wait()
	for _, w := range mc.workers {
		w.Close()
	}
	if mc.coord != nil {
		mc.coord.Close()
	}
}

func runMedianShuffle(cfg config) (*report, error) {
	rep := newReport()
	shape := shuffleShape(cfg.scale)
	n := shuffleSetups
	if cfg.trace {
		n = 1
	}
	var (
		tr       = newTracer(cfg.trace)
		packMu   sync.Mutex
		packSize = map[string]int64{} // job → Σ committed spill bytes
	)
	onMap := func(traceID string, body []byte) {
		var resp cluster.MapResponse
		if json.Unmarshal(body, &resp) != nil {
			return
		}
		packMu.Lock()
		for _, o := range resp.Outputs {
			packSize[traceID] += o.Bytes
		}
		packMu.Unlock()
	}
	var mc *miniCluster
	defer func() {
		if mc != nil {
			mc.stop()
		}
	}()
	teardown := func() {
		mc.stop()
		mc = nil
	}
	sf, reg, err := setups(rep, n, "shuffle", teardown, func() (setFiles, error) {
		sf, err := writeAndRegister(cfg.dir, "shuffle", shape, datagen.Windspeed(cfg.seed))
		if err != nil {
			return sf, err
		}
		mc, err = startCluster(filepath.Join(cfg.dir, "spill"), nil, nil)
		return sf, err
	})
	if err != nil {
		return nil, err
	}

	jp := cluster.JobPlan{
		Query:    fmt.Sprintf("median v[0,0,0 : %d,%d,%d] es {1,4,4}", shape[0], shape[1], shape[2]),
		Engine:   "sidr",
		Reducers: shuffleReducers,
	}
	q, err := query.Parse(jp.Query)
	if err != nil {
		return nil, err
	}
	jp.SplitPoints = q.Input.Size()/8 + 1 // sidr.Prepare's default
	refPlan, err := jp.NewPlan()
	if err != nil {
		return nil, err
	}
	dspec := cluster.DatasetSpec{Kind: "file", Path: sf.path, Variable: "v"}
	rep.notes["input_cells"] = q.Input.Size()
	rep.notes["query"] = jp.Query

	// The reference: the in-process engine on the same plan tuple.
	f, err := ncfile.Open(sf.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reader := &mapreduce.FileReader{File: f, Var: "v"}
	refRes, err := refPlan.RunLocal(reader, func(c *mapreduce.Config) { c.Workers = 1 })
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	orc := newOracle(cfg.flip)
	orc.set(jp.Query, outputsTable(refRes.Outputs))

	ex := exec.New(runtime.GOMAXPROCS(0))
	defer ex.Close()
	var (
		resMu    sync.Mutex
		partials = map[string][]time.Time{}
		counters []cluster.Counters
	)
	job := func(i int, jtr *tracer) (jobSample, error) {
		id := fmt.Sprintf("mshuf-%04d", i)
		s := jobSample{submit: time.Now()}
		res, err := mc.coord.Run(context.Background(), cluster.JobSpec{
			ID: id, Plan: jp, Dataset: dspec, Exec: ex,
			OnPartial: func(cluster.ReduceResult) {
				now := time.Now()
				resMu.Lock()
				if s.first.IsZero() {
					s.first = now
				}
				s.last = now
				partials[id] = append(partials[id], now)
				resMu.Unlock()
			},
		})
		if err != nil {
			return s, err
		}
		resMu.Lock()
		defer resMu.Unlock()
		s.ok = orc.check(jp.Query, reduceTable(res.Outputs)) == nil
		if jtr != nil {
			jtr.add(span{Trace: id, Name: "job", Start: s.submit, End: s.last})
			counters = append(counters, res.Counters)
		}
		return s, nil
	}

	if err := warmUp(rep, 0, job); err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	rep.notes["shuffle_bytes_per_job"] = shuffleBytes(mc.reg)
	if !cfg.trace {
		p := closedLoop(d, 1, nil, job, registerEach(reg, shuffleRegisterEach))
		p.account(rep)
		batchEndToEnd(rep, p, chooseQuiet(cfg.steal, p.start, d, rep), shuffleLimit)
		reg.report(rep, cfg.steal)
		return rep, nil
	}

	// Traced run: an untraced half on the plain cluster, then a traced half
	// on a fresh cluster whose worker handlers and coordinator transport
	// record spans; the difference is the tracing overhead.
	if err := registerEach(reg, reregisters)(); err != nil {
		return nil, err
	}
	reg.report(rep, cfg.steal)
	plain := closedLoop(d/2, 1, nil, job, nil)
	plain.account(rep)
	mc.stop()
	if mc, err = startCluster(filepath.Join(cfg.dir, "spill-traced"), tr, onMap); err != nil {
		return nil, err
	}
	if err := warmUp(rep, 1+plain.attempts, job); err != nil {
		return nil, err
	}
	execBefore := ex.Stats().Dispatched
	traced := closedLoop(d/2, 2+plain.attempts, tr, job, nil)
	traced.account(rep)
	spans := tr.all()
	rep.spans = spans
	m := rep.metrics
	clusterMetrics(m, spans, partials, counters)
	packMu.Lock()
	var packs []float64
	for _, s := range spans {
		if s.Name == "job" {
			packs = append(packs, float64(packSize[s.Trace]))
		}
	}
	packMu.Unlock()
	m["spillstore.pack_bytes"] = median(packs)
	m["exec.peak_running"] = float64(ex.Stats().PeakRunning)
	m["exec.dispatched"] = float64(ex.Stats().Dispatched-execBefore) / float64(traced.attempts)
	batchGoMetrics(rep, traced)
	m["trace.overhead_job_s"] = median(traced.totals()) - median(plain.totals())
	m["trace.overhead_request_s.p50"] = m["trace.overhead_job_s"]
	m["trace.unattributed_frac"] = unattributed(spans, "job")
	rep.notes["self_s"] = selfTimes(spans, "job")

	if m["ncfile.read_cells_per_s"], err = replayRead(reader, refPlan.Splits); err != nil {
		return nil, err
	}
	if _, m["mapreduce.pairs_per_record"], err = replayShuffle(refPlan, reader, filepath.Join(cfg.dir, "replay"), rep); err != nil {
		return nil, err
	}
	if m["core.plan_s.p50"], err = planTime(func() error { _, err := jp.NewPlan(); return err }); err != nil {
		return nil, err
	}
	if m["sidx.pruned_split_ratio"], err = prunedRatio(sf.path, q, core.Options{Reducers: jp.Reducers, SplitPoints: jp.SplitPoints}); err != nil {
		return nil, err
	}
	m["join.plan_s.p50"] = 0
	notExercised(rep, "mapreduce.", "jobs.", "server.", "loadgen.")
	return rep, nil
}

// reduceTable flattens clustered keyblock outputs in keyblock order.
func reduceTable(outs []cluster.ReduceResult) table {
	var t table
	for _, o := range outs {
		for i, k := range o.Keys {
			t.Keys = append(t.Keys, k)
			t.Values = append(t.Values, o.Values[i])
		}
	}
	return t
}

func shuffleBytes(reg *metrics.Registry) int64 {
	return reg.Counter("sidrd_shuffle_bytes_total").Value()
}

// clusterMetrics derives the cluster.* metrics from the recorded spans:
// client.* spans are the coordinator's requests, worker.* spans the
// workers' handlers, linked by span id.
func clusterMetrics(m map[string]float64, spans []span, partials map[string][]time.Time, counters []cluster.Counters) {
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var rpc, handler, overhead []float64
	type perJob struct {
		mapBusy, fetchBusy, serveBusy, replBusy float64
		fetches, retries, replicas              int
		fetchBytes, replBytes                   int64
		mapEnds                                 []time.Time
	}
	jobs := map[string]*perJob{}
	get := func(id string) *perJob {
		if jobs[id] == nil {
			jobs[id] = &perJob{}
		}
		return jobs[id]
	}
	timed := map[string]bool{} // jobs of the traced phase, not the warm-up
	for _, s := range spans {
		if s.Name == "job" {
			timed[s.Trace] = true
		}
	}
	for _, s := range spans {
		if !timed[s.Trace] {
			continue
		}
		j := get(s.Trace)
		switch s.Name {
		case "client.map":
			rpc = append(rpc, secs(s.dur()))
			if !s.Failed {
				j.mapEnds = append(j.mapEnds, s.End)
			}
		case "worker.map":
			handler = append(handler, secs(s.dur()))
			j.mapBusy += secs(s.dur())
			if c, ok := byID[s.Parent]; ok {
				overhead = append(overhead, secs(c.dur()-s.dur()))
			}
		case "client.fetch":
			j.fetches++
			j.fetchBytes += s.Bytes
			j.fetchBusy += secs(s.dur())
			if s.Failed {
				j.retries++
			}
		case "worker.fetch":
			j.serveBusy += secs(s.dur())
		case "worker.replicate":
			j.replBusy += secs(s.dur())
			if !s.Failed {
				j.replicas++
			}
		case "worker.pack":
			j.replBytes += s.Bytes
		}
	}
	var mapBusy, fetchBusy, serveBusy, replBusy, fetches, retries, replicas, fetchBytes, replBytes, fracs, spreads []float64
	for id, j := range jobs {
		ts := partials[id]
		if len(ts) == 0 {
			continue
		}
		first, last := ts[0], ts[0]
		for _, t := range ts {
			if t.Before(first) {
				first = t
			}
			if t.After(last) {
				last = t
			}
		}
		done := 0
		for _, t := range j.mapEnds {
			if !t.After(first) {
				done++
			}
		}
		fracs = append(fracs, ratio(float64(done), float64(len(j.mapEnds))))
		spreads = append(spreads, secs(last.Sub(first)))
		mapBusy = append(mapBusy, j.mapBusy)
		fetchBusy = append(fetchBusy, j.fetchBusy)
		serveBusy = append(serveBusy, j.serveBusy)
		replBusy = append(replBusy, j.replBusy)
		fetches = append(fetches, float64(j.fetches))
		retries = append(retries, float64(j.retries))
		replicas = append(replicas, float64(j.replicas))
		fetchBytes = append(fetchBytes, float64(j.fetchBytes))
		replBytes = append(replBytes, float64(j.replBytes))
	}
	var fallbacks []float64
	for _, c := range counters {
		fallbacks = append(fallbacks, float64(c.BatchFallbacks))
	}
	m["cluster.map_rpc_s.p50"] = median(rpc)
	m["cluster.map_handler_s.p50"] = median(handler)
	m["cluster.dispatch_overhead_s.p50"] = median(overhead)
	m["cluster.map_busy_s"] = median(mapBusy)
	m["cluster.fetch_requests"] = median(fetches)
	m["cluster.fetch_bytes"] = median(fetchBytes)
	m["cluster.fetch_busy_s"] = median(fetchBusy)
	m["cluster.fetch_serve_busy_s"] = median(serveBusy)
	m["cluster.fetch_retries"] = median(retries) + median(fallbacks)
	m["cluster.replica_pushes"] = median(replicas)
	m["cluster.replica_bytes"] = median(replBytes)
	m["cluster.replicate_busy_s"] = median(replBusy)
	m["cluster.map_frac_at_first"] = median(fracs)
	m["cluster.commit_spread_s"] = median(spreads)
}

// planTime is the median time of repeated planning calls.
func planTime(plan func() error) (float64, error) {
	var ts []float64
	_, _, err := repeatFor(replayMin, func() error {
		start := time.Now()
		if err := plan(); err != nil {
			return err
		}
		ts = append(ts, secs(time.Since(start)))
		return nil
	})
	return median(ts), err
}
