package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sidr"
	"sidr/internal/cluster"
	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/jobs"
	"sidr/internal/mapreduce"
	"sidr/internal/metrics"
	"sidr/internal/query"
	"sidr/internal/server"
	"sidr/internal/wire"
)

// serve-mix: the full daemon stack (registry → jobs.Manager →
// server.Server on loopback) under an open loop at one fixed offered rate
// from a single generator. Queries are drawn zipf-skewed from a fixed pool
// of sub-slab aggregates, index-prunable selective filters, one holistic
// query and one join; two tenants run under weighted admission with an
// in-flight quota; and a writer periodically re-registers the grid
// dataset, which bumps its version, invalidates its cached results and
// rebuilds its sidx index. Engine work is small; the serving tier, the
// planner and the write path are what this workload exercises.
const (
	// serveRate is the offered rate in requests per second, about half
	// the rate the stack sustains on this mix (stated in BENCHMARK.json).
	serveRate = 35.0
	// serveLimit is the goodput latency limit (stated in BENCHMARK.json).
	serveLimit = time.Second
	// serveRegisterEvery is the writer's re-registration period.
	serveRegisterEvery = 4 * time.Second
	serveSetups        = 5
	serveReducers      = 4
	serveZipfS         = 1.1
)

// serveTenants are the two tenants: name, share of requests, policy.
var serveTenants = []struct {
	name   string
	share  float64
	policy jobs.TenantPolicy
}{
	{"alpha", 0.75, jobs.TenantPolicy{MaxInFlight: 4, Weight: 3}},
	{"beta", 0.25, jobs.TenantPolicy{MaxInFlight: 2, Weight: 1}},
}

// poolQuery is one entry of the query pool, in popularity rank order.
type poolQuery struct {
	dataset, dataset2 string
	text              string
}

func (p poolQuery) touchesGrid() bool { return p.dataset == "grid" || p.dataset2 == "grid" }

// gridShape is the re-registered dataset: daily temperatures over a
// {day, lat, lon} grid, two years long.
func gridShape(scale float64) []int64 {
	return []int64{max(70, int64(730*scale)/10*10), 64, 64}
}

// servePool builds the query pool for the grid's leading extent. The rank
// order interleaves query kinds so every kind sits in the popular head.
func servePool(days int64) []poolQuery {
	slab := days / 10 // one tenth of the days
	agg := func(op string, k int64, es string) poolQuery {
		return poolQuery{dataset: "grid", text: fmt.Sprintf("%s t[%d,0,0 : %d,64,64] es {%s}", op, k*slab, slab, es)}
	}
	side := min(days, 64)
	return []poolQuery{
		agg("avg", 0, "1,16,16"),
		{dataset: "grid", text: fmt.Sprintf("filter_gt t[0,0,0 : %d,16,16] es {5,8,8} param 27", days)},
		agg("avg", 1, "1,16,16"),
		{dataset: "grid", text: fmt.Sprintf("median t[0,0,0 : %d,32,32] es {2,4,4}", min(days, 60))},
		agg("max", 2, "2,8,8"),
		{dataset: "grid", text: fmt.Sprintf("filter_lt t[0,48,48 : %d,16,16] es {5,8,8} param 0", days)},
		agg("avg", 3, "1,16,16"),
		{dataset: "grid", dataset2: "ints", text: fmt.Sprintf("join javg t[0,0,0 : %d,64,64] es {8,8,8} with n[0,0,0 : %d,64,64] es {8,8,8}", side, side)},
		agg("stddev", 4, "1,16,16"),
		{dataset: "ints", text: "sum n[0,0,0 : 64,64,64] es {4,4,4}"},
		agg("avg", 5, "2,16,16"),
	}
}

func gridSpec(seed int64, scale float64) cluster.DatasetSpec {
	return cluster.DatasetSpec{Kind: "synthetic", Generator: "temperature", Shape: gridShape(scale), Seed: seed}
}

func intsSpec(seed int64) cluster.DatasetSpec {
	return cluster.DatasetSpec{Kind: "synthetic", Generator: "integers", Shape: []int64{64, 64, 64}, Seed: seed + 1}
}

// generatedReader reads a registered generated dataset the way cluster
// workers do: straight from its generator.
func generatedReader(reg *server.Registry, name, variable string) (mapreduce.RecordReader, error) {
	spec, err := reg.DatasetSpec(name, variable)
	if err != nil {
		return nil, err
	}
	fn, err := cluster.GeneratorFunc(spec)
	if err != nil {
		return nil, err
	}
	return &mapreduce.FuncReader{Fn: fn}, nil
}

// stack is one running daemon stack.
type stack struct {
	registry *server.Registry
	mgr      *jobs.Manager
	reg      *metrics.Registry
	srv      *http.Server
	url      string
	served   sync.WaitGroup
}

// startStack registers the datasets and starts the manager and server;
// with a tracer the server's handler records one span per request.
func startStack(cfg config, tr *tracer) (*stack, time.Duration, error) {
	st := &stack{registry: server.NewRegistry(), reg: metrics.New()}
	start := time.Now()
	if err := st.registry.AddGenerated("grid", gridSpec(cfg.seed, cfg.scale)); err != nil {
		st.stop()
		return nil, 0, err
	}
	register := time.Since(start)
	if err := st.registry.AddGenerated("ints", intsSpec(cfg.seed)); err != nil {
		st.stop()
		return nil, 0, err
	}
	tenants := map[string]jobs.TenantPolicy{}
	for _, t := range serveTenants {
		tenants[t.name] = t.policy
	}
	mgr, err := jobs.NewManager(jobs.Config{
		Tenants:  tenants,
		Datasets: st.registry,
		Metrics:  st.reg,
	})
	if err != nil {
		st.stop()
		return nil, 0, err
	}
	st.mgr = mgr
	var h http.Handler = server.New(mgr, st.registry, st.reg, nil)
	if tr != nil {
		h = &tracingHandler{t: tr, next: h, name: serverRoute}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.stop()
		return nil, 0, err
	}
	st.url = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: h}
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		_ = st.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return st, register, nil
}

// stop closes the server, drains the manager and closes the registry,
// waiting for the serving goroutine to exit.
func (st *stack) stop() {
	if st.srv != nil {
		st.srv.Close()
		st.served.Wait()
	}
	if st.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = st.mgr.Shutdown(ctx) // an expired drain cancels what is left
		cancel()
	}
	st.registry.Close()
}

func serverRoute(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/query":
		return "server.submit"
	case strings.HasSuffix(r.URL.Path, "/stream"):
		return "server.stream"
	}
	return "server.other"
}

// plannedReq is one request of the open-loop schedule.
type plannedReq struct {
	due    time.Duration // offset from the phase start
	query  int           // pool index
	tenant string
}

// schedule lays out the open-loop arrivals of a phase of length d at the
// fixed offered rate: evenly spaced, from a seeded phase offset, so every
// phase offers the same load and run-to-run differences come from the
// system rather than from arrival bursts. Each request's query is drawn
// zipf-skewed over the pool and its tenant by share.
func schedule(seed int64, d time.Duration, poolSize int) []plannedReq {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(poolSize-1))
	gap := time.Duration(math.Round(float64(time.Second) / serveRate))
	offset := time.Duration(rng.Float64() * float64(gap))
	out := make([]plannedReq, int(math.Round(serveRate*d.Seconds())))
	for i := range out {
		out[i].due = offset + time.Duration(i)*gap
		out[i].query = int(zipf.Uint64())
		u := rng.Float64()
		for _, tn := range serveTenants {
			out[i].tenant = tn.name
			if u < tn.share {
				break
			}
			u -= tn.share
		}
	}
	return out
}

// reqResult is one request's outcome, timed at the client.
type reqResult struct {
	due, fired, submitted, first, end time.Time
	query                             int // pool index
	traceID, jobID                    string
	snap                              jobs.Snapshot
	got                               table // the done event's result, until checked
	ok, wrong                         bool
	err                               string
}

func (r reqResult) latency() float64 { return secs(r.end.Sub(r.due)) }

func (r reqResult) executed() bool {
	return r.ok && !r.snap.ResultHit && r.snap.CollapsedInto == ""
}

// servePhase is the outcome of one open-loop phase.
type servePhase struct {
	epoch     time.Time
	results   []reqResult
	registers []timed
	memBefore memSample
	memAfter  memSample
}

// loadGen drives one stack with the schedule from nproc goroutines over at
// most nproc connections. A request fires when it is due or, if every
// goroutine is busy, as soon as one frees; either way it is timed from its
// due time. Requests that read the grid hold its gate shared, and the
// writer holds it exclusively while it re-registers the grid: the
// registry's re-registration is Remove followed by Add, so the name is
// unknown while the index rebuilds and a request arriving then would fail.
//
// In a traced phase each request carries a trace id header on its submit
// and stream calls, so the server's spans join the request's trace.
func loadGen(st *stack, cfg config, pool []poolQuery, sched []plannedReq, orc *oracle, traced bool) servePhase {
	procs := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     procs,
		MaxIdleConnsPerHost: procs,
	}}
	defer client.CloseIdleConnections()

	var (
		gate    sync.RWMutex
		next    atomic.Int64
		results = make([]reqResult, len(sched))
		wg      sync.WaitGroup
		out     servePhase
	)
	out.memBefore = readMem()
	epoch := time.Now()
	out.epoch = epoch
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		tick := time.NewTicker(serveRegisterEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopWriter:
				return
			case <-tick.C:
			}
			gate.Lock()
			start := time.Now()
			st.registry.Remove("grid")
			err := st.registry.AddGenerated("grid", gridSpec(cfg.seed, cfg.scale))
			took := time.Since(start)
			gate.Unlock()
			if err == nil {
				out.registers = append(out.registers, timed{at: start, took: took})
			}
		}
	}()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := epoch.Add(sched[i].due)
				time.Sleep(time.Until(due))
				pq := pool[sched[i].query]
				res := reqResult{due: due, fired: time.Now(), query: sched[i].query}
				if traced {
					res.traceID = fmt.Sprintf("req-%05d", i)
				}
				if pq.touchesGrid() {
					gate.RLock()
				}
				doRequest(client, st.url, pq, sched[i].tenant, &res)
				if pq.touchesGrid() {
					gate.RUnlock()
				}
				if res.err == "" {
					if err := orc.check(pq.text, res.got); err != nil {
						res.wrong, res.err = true, err.Error()
					} else {
						res.ok = true
					}
				}
				res.got = table{}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	close(stopWriter)
	<-writerDone
	out.memAfter = readMem()
	out.results = results
	return out
}

// doRequest submits one query and streams it to its terminal event.
func doRequest(client *http.Client, url string, pq poolQuery, tenant string, res *reqResult) {
	defer func() { res.end = time.Now() }()
	body, _ := json.Marshal(jobs.Request{Dataset: pq.dataset, Dataset2: pq.dataset2, Query: pq.text, Reducers: serveReducers})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		res.err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-SIDR-Tenant", tenant)
	if res.traceID != "" {
		req.Header.Set(traceHeader, res.traceID)
	}
	resp, err := client.Do(req)
	if err != nil {
		res.err = err.Error()
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		var e wire.Error
		_ = json.NewDecoder(resp.Body).Decode(&e) // the status already says it failed
		resp.Body.Close()
		res.err = fmt.Sprintf("submit: %d %s %s", resp.StatusCode, e.Error, e.Detail)
		return
	}
	err = json.NewDecoder(resp.Body).Decode(&res.snap)
	resp.Body.Close()
	if err != nil {
		res.err = "submit: " + err.Error()
		return
	}
	res.submitted = time.Now()
	res.jobID = res.snap.ID

	sreq, err := http.NewRequest(http.MethodGet, url+"/v1/jobs/"+res.snap.ID+"/stream", nil)
	if err != nil {
		res.err = err.Error()
		return
	}
	if res.traceID != "" {
		sreq.Header.Set(traceHeader, res.traceID)
	}
	sresp, err := client.Do(sreq)
	if err != nil {
		res.err = err.Error()
		return
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		res.err = fmt.Sprintf("stream: %d", sresp.StatusCode)
		return
	}
	dec := json.NewDecoder(sresp.Body)
	for {
		var ev wire.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			res.err = "stream: " + err.Error()
			return
		}
		switch ev.Type {
		case wire.EventPartial:
			if res.first.IsZero() {
				res.first = time.Now()
			}
			continue
		case wire.EventDone:
			if res.first.IsZero() {
				res.first = time.Now()
			}
			if ev.Result == nil {
				res.err = "done event without a result"
				return
			}
			res.got = table{Keys: ev.Result.Keys, Values: ev.Result.Values}
			return
		default:
			res.err = fmt.Sprintf("%s: %s %s", ev.Type, ev.Error, ev.Detail)
			return
		}
	}
}

// serveReference computes every pool query's result with the in-process
// engine on a private single-worker pool, outside any timed phase, and
// returns the shuffle bytes of each single-input query's run. Joins run
// through the facade, which folds their share units, and report none.
func serveReference(st *stack, pool []poolQuery, orc *oracle) (map[string]int64, error) {
	shuffle := map[string]int64{}
	for _, pq := range pool {
		q, err := query.Parse(pq.text)
		if err != nil {
			return nil, err
		}
		if q.Join {
			t, err := joinReference(st, pq)
			if err != nil {
				return nil, fmt.Errorf("reference %q: %w", pq.text, err)
			}
			orc.set(pq.text, t)
			continue
		}
		reader, err := generatedReader(st.registry, pq.dataset, q.Variable)
		if err != nil {
			return nil, err
		}
		plan, err := core.NewPlan(q, core.EngineSIDR, core.Options{Reducers: serveReducers, SplitPoints: q.Input.Size()/8 + 1})
		if err != nil {
			return nil, err
		}
		res, err := plan.RunLocal(reader, func(c *mapreduce.Config) { c.Workers = 1 })
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", pq.text, err)
		}
		orc.set(pq.text, sortedTable(outputsTable(res.Outputs)))
		shuffle[pq.text] = res.Counters.ShuffleBytes
	}
	return shuffle, nil
}

func joinReference(st *stack, pq poolQuery) (table, error) {
	q, err := sidr.ParseQuery(pq.text)
	if err != nil {
		return table{}, err
	}
	a, relA, err := st.registry.Acquire(pq.dataset, q.Variable())
	if err != nil {
		return table{}, err
	}
	defer relA()
	b, relB, err := st.registry.Acquire(pq.dataset2, q.Variable2())
	if err != nil {
		return table{}, err
	}
	defer relB()
	res, err := sidr.RunJoin(a, b, q, sidr.RunOptions{Engine: sidr.SIDR, Reducers: serveReducers, Workers: 1})
	if err != nil {
		return table{}, err
	}
	return table{Keys: res.Keys, Values: res.Values}, nil
}

// sortedTable orders rows by key, row-major, as the daemon's results are.
func sortedTable(t table) table {
	idx := make([]int, len(t.Keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return coords.Coord(t.Keys[idx[a]]).Less(t.Keys[idx[b]]) })
	out := table{Keys: make([][]int64, len(idx)), Values: make([][]float64, len(idx))}
	for i, j := range idx {
		out.Keys[i], out.Values[i] = t.Keys[j], t.Values[j]
	}
	return out
}

func runServeMix(cfg config) (*report, error) {
	rep := newReport()
	pool := servePool(gridShape(cfg.scale)[0])
	n := serveSetups
	if cfg.trace {
		n = 1
	}
	var (
		st        *stack
		totals    []float64
		registers []timed // before the measured phase
	)
	defer func() {
		if st != nil {
			st.stop()
		}
	}()
	for i := 0; i < n; i++ {
		if st != nil {
			st.stop()
			st = nil
		}
		start := time.Now()
		s, reg, err := startStack(cfg, nil)
		if err != nil {
			return nil, err
		}
		st = s
		totals = append(totals, secs(time.Since(start)))
		registers = append(registers, timed{at: start, took: reg})
	}
	rep.metrics["setup_s"] = median(totals)
	rep.notes["setups"] = n
	orc := newOracle(cfg.flip)
	shuffle, err := serveReference(st, pool, orc)
	if err != nil {
		return nil, err
	}
	rep.notes["shuffle_bytes_by_query"] = shuffle
	cells := int64(1)
	for _, d := range gridShape(cfg.scale) {
		cells *= d
	}
	rep.notes["input_cells"] = map[string]int64{"grid": cells, "ints": 64 * 64 * 64}
	rep.notes["offered_rate_rps"] = serveRate
	rep.notes["latency_limit_s"] = serveLimit.Seconds()
	rep.notes["pool"] = len(pool)

	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		for i := 0; i < reregisters; i++ {
			start := time.Now()
			st.registry.Remove("grid")
			if err := st.registry.AddGenerated("grid", gridSpec(cfg.seed, cfg.scale)); err != nil {
				return nil, err
			}
			registers = append(registers, timed{at: start, took: time.Since(start)})
		}
		if !resetPeakRSS() {
			rep.notes["peak_rss_scope"] = "whole process"
		}
		p := loadGen(st, cfg, pool, schedule(cfg.seed, d, len(pool)), orc, false)
		p.account(rep)
		serveEndToEnd(rep, p, chooseQuiet(cfg.steal, p.epoch, d, rep))
		var used int
		rep.metrics["register_s"], used = quietMedian(cfg.steal, append(registers, p.registers...))
		rep.notes["registrations"] = len(registers) + len(p.registers)
		rep.notes["registrations_reported"] = used
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		return rep, nil
	}

	// Traced run: an untraced half on the plain stack, then a traced half
	// on a fresh stack whose server handler records spans.
	plain := loadGen(st, cfg, pool, schedule(cfg.seed, d/2, len(pool)), orc, false)
	plain.account(rep)
	st.stop()
	tr := newTracer(true)
	if st, _, err = startStack(cfg, tr); err != nil {
		return nil, err
	}
	before := counterSnapshot(st.reg)
	traced := loadGen(st, cfg, pool, schedule(cfg.seed, d/2, len(pool)), orc, true)
	traced.account(rep)
	after := counterSnapshot(st.reg)
	for _, r := range traced.results {
		serveSpans(tr, st.mgr, r)
	}
	spans := tr.all()
	rep.spans = spans
	if err := serveLayerMetrics(rep, cfg, st, pool, plain, traced, before, after, spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// account adds the phase's attempts and failures to the report.
func (p servePhase) account(rep *report) {
	var errs []string
	for _, r := range p.results {
		rep.attempted++
		if !r.ok {
			rep.failed++
			if r.wrong {
				rep.wrong++
			}
			errs = append(errs, r.err)
		}
	}
	if len(errs) > 0 {
		rep.notes["errors"] = errs
	}
}

func (p servePhase) latencies() (all, executed, firsts []float64) {
	for _, r := range p.results {
		all = append(all, r.latency())
		if r.executed() {
			executed = append(executed, secs(r.end.Sub(r.submitted)))
		}
		if !r.first.IsZero() {
			firsts = append(firsts, secs(r.first.Sub(r.due)))
		}
	}
	return all, executed, firsts
}

// serveEndToEnd sets the end-to-end metrics of an open-loop phase from
// the requests due in its quiet window. job_s is submit → terminal event
// over the requests that ran a job (neither a result-cache hit nor a
// collapse follower); goodput counts correct requests within serveLimit
// per second of the window.
func serveEndToEnd(rep *report, whole servePhase, q quietWindow) {
	p := whole
	p.results = nil
	for _, r := range whole.results {
		if q.keeps(r.due) {
			p.results = append(p.results, r)
		}
	}
	lat, executed, firsts := p.latencies()
	m := rep.metrics
	m["job_s"] = median(executed)
	m["first_result_s"] = median(firsts)
	m["request_s.p50"] = median(lat)
	m["request_s.p90"] = quantile(lat, 0.9)
	// Goodput's time base is each used segment from its start to the later
	// of its end and the last response to a request due in it.
	good := 0
	spans := map[int]time.Duration{}
	for _, r := range p.results {
		if r.ok && r.end.Sub(r.due) <= serveLimit {
			good++
		}
		i := q.index(r.due)
		spans[i] = max(spans[i], q.seg, r.end.Sub(q.start.Add(time.Duration(i)*q.seg)))
	}
	var covered time.Duration
	for _, d := range spans {
		covered += d
	}
	late := 0.0
	for _, r := range whole.results {
		late = max(late, secs(r.fired.Sub(r.due)))
	}
	m["goodput_rps"] = ratio(float64(good), covered.Seconds())
	rep.notes["requests"] = len(whole.results)
	rep.notes["requests_reported"] = len(p.results)
	rep.notes["executed_jobs"] = len(executed)
	rep.notes["request_s.p99"] = quantile(lat, 0.99)
	rep.notes["loadgen_late_s_max"] = late
	byQuery := map[int][]float64{}
	for _, r := range p.results {
		if r.executed() {
			byQuery[r.query] = append(byQuery[r.query], secs(r.end.Sub(r.submitted)))
		}
	}
	perQuery := map[string]string{}
	for i, xs := range byQuery {
		perQuery[fmt.Sprint(i)] = fmt.Sprintf("n=%d p50=%.3fs", len(xs), median(xs))
	}
	rep.notes["executed_by_query"] = perQuery
}

// counterSnapshot reads the serving-tier counters the layer metrics use.
func counterSnapshot(reg *metrics.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, name := range []string{
		"sidrd_jobs_submitted_total", "sidrd_jobs_done_total", "sidrd_resultcache_hits_total",
		"sidrd_plan_cache_hits_total", "sidrd_plan_cache_misses_total", "sidrd_collapse_followers_total",
		"sidrd_tenant_rejected_total", "sidrd_jobs_rejected_total",
	} {
		out[name] = reg.Counter(name).Value()
	}
	return out
}

// serveSpans records a finished request's spans: the request root from
// its due time, the load generator's lateness, and the job's queue wait
// and execution from its snapshot timestamps.
func serveSpans(tr *tracer, mgr *jobs.Manager, r reqResult) {
	id := r.traceID
	tr.add(span{Trace: id, Name: "request", Start: r.due, End: r.end, Failed: !r.ok})
	tr.add(span{Trace: id, Name: "loadgen.late", Start: r.due, End: r.fired})
	if r.jobID == "" {
		return
	}
	j, err := mgr.Get(r.jobID)
	if err != nil {
		return
	}
	s := j.Snapshot()
	if !s.Started.IsZero() {
		tr.add(span{Trace: id, Name: "jobs.queue", Start: s.Created, End: s.Started})
	}
	if !s.Finished.IsZero() && !s.Started.IsZero() {
		tr.add(span{Trace: id, Name: "jobs.execute", Start: s.Started, End: s.Finished})
	}
}

// serveLayerMetrics derives the per-layer metrics of a traced serve-mix
// run.
func serveLayerMetrics(rep *report, cfg config, st *stack, pool []poolQuery, plain, traced servePhase,
	before, after map[string]int64, spans []span) error {
	m := rep.metrics
	delta := func(name string) float64 { return float64(after[name] - before[name]) }

	var submits, streams, streamBytes, queue, execute []float64
	for _, s := range spans {
		switch s.Name {
		case "server.submit":
			submits = append(submits, secs(s.dur()))
		case "server.stream":
			streams = append(streams, secs(s.dur()))
			streamBytes = append(streamBytes, float64(s.Bytes))
		case "jobs.queue":
			queue = append(queue, secs(s.dur()))
		case "jobs.execute":
			execute = append(execute, secs(s.dur()))
		}
	}
	m["server.submit_s.p50"] = median(submits)
	m["server.stream_s.p50"] = median(streams)
	m["server.stream_bytes.p50"] = median(streamBytes)
	var q2, e2 []float64
	for _, r := range traced.results {
		if !r.executed() {
			continue
		}
		j, err := st.mgr.Get(r.jobID)
		if err != nil {
			continue
		}
		s := j.Snapshot()
		q2 = append(q2, secs(s.Started.Sub(s.Created)))
		e2 = append(e2, secs(s.Finished.Sub(s.Started)))
	}
	m["jobs.queue_wait_s.p50"] = median(q2)
	m["jobs.execute_s.p50"] = median(e2)
	m["jobs.result_cache_hit_ratio"] = ratio(delta("sidrd_resultcache_hits_total"), delta("sidrd_jobs_submitted_total"))
	m["jobs.plan_cache_hit_ratio"] = ratio(delta("sidrd_plan_cache_hits_total"),
		delta("sidrd_plan_cache_hits_total")+delta("sidrd_plan_cache_misses_total"))
	m["jobs.collapsed"] = delta("sidrd_collapse_followers_total")
	m["jobs.refused"] = delta("sidrd_tenant_rejected_total") + delta("sidrd_jobs_rejected_total")

	late := 0.0
	for _, r := range traced.results {
		late = max(late, secs(r.fired.Sub(r.due)))
	}
	m["loadgen.late_s.max"] = late

	es := st.mgr.ExecStats()
	m["exec.peak_running"] = float64(es.PeakRunning)
	m["exec.dispatched"] = ratio(float64(es.Dispatched), float64(after["sidrd_jobs_done_total"]))
	reqs := float64(max(len(traced.results), 1))
	m["go.alloc_mb_per_job"] = float64(traced.memAfter.alloc-traced.memBefore.alloc) / (1 << 20) / reqs
	m["go.gc_cycles_per_job"] = float64(traced.memAfter.gcs-traced.memBefore.gcs) / reqs

	pAll, _, _ := plain.latencies()
	tAll, _, _ := traced.latencies()
	_, pExec, _ := plain.latencies()
	_, tExec, _ := traced.latencies()
	m["trace.overhead_job_s"] = median(tExec) - median(pExec)
	m["trace.overhead_request_s.p50"] = median(tAll) - median(pAll)
	m["trace.unattributed_frac"] = unattributed(spans, "request")
	rep.notes["self_s"] = selfTimes(spans, "request")

	// Planning replays over the pool's distinct queries; the join plans
	// with the samplers the in-process engine gives it.
	var plans, joinPlans, pruned, total []float64
	for _, pq := range pool {
		q, err := query.Parse(pq.text)
		if err != nil {
			return err
		}
		opts := core.Options{Reducers: serveReducers, SplitPoints: q.Input.Size()/8 + 1}
		if q.Join {
			if s := q.Input2.Size(); s > q.Input.Size() {
				opts.SplitPoints = s/8 + 1
			}
			ra, err := generatedReader(st.registry, pq.dataset, q.Variable)
			if err != nil {
				return err
			}
			rb, err := generatedReader(st.registry, pq.dataset2, q.Variable2)
			if err != nil {
				return err
			}
			opts.JoinSamplerA, opts.JoinSamplerB = ra, rb
			t, err := planTime(func() error { _, err := core.NewPlan(q, core.EngineSIDR, opts); return err })
			if err != nil {
				return err
			}
			joinPlans = append(joinPlans, t)
			continue
		}
		t, err := planTime(func() error { _, err := core.NewPlan(q, core.EngineSIDR, opts); return err })
		if err != nil {
			return err
		}
		plans = append(plans, t)
		if strings.HasPrefix(pq.text, "filter") {
			share, err := pruneShare(q, opts, st.registry.Index(pq.dataset, q.Variable))
			if err != nil {
				return err
			}
			pruned = append(pruned, share)
			total = append(total, 1)
		}
	}
	m["core.plan_s.p50"] = median(plans)
	m["join.plan_s.p50"] = median(joinPlans)
	m["sidx.pruned_split_ratio"] = ratio(sum(pruned), sum(total))
	var builds []float64
	for _, d := range st.registry.List() {
		if d.Name == "grid" {
			for _, v := range d.Variables {
				builds = append(builds, v.IndexBuildMs/1000)
			}
		}
	}
	m["sidx.index_build_s"] = median(builds)

	// Layer replays on the holistic query, the pool's heaviest shuffle.
	var hol poolQuery
	for _, pq := range pool {
		if strings.HasPrefix(pq.text, "median") {
			hol = pq
		}
	}
	q, err := query.Parse(hol.text)
	if err != nil {
		return err
	}
	plan, err := core.NewPlan(q, core.EngineSIDR, core.Options{Reducers: serveReducers, SplitPoints: q.Input.Size()/8 + 1})
	if err != nil {
		return err
	}
	reader, err := generatedReader(st.registry, hol.dataset, q.Variable)
	if err != nil {
		return err
	}
	if m["ncfile.read_cells_per_s"], err = replayRead(reader, plan.Splits); err != nil {
		return err
	}
	perSplit, ppr, err := replayShuffle(plan, reader, filepath.Join(cfg.dir, "replay"), rep)
	if err != nil {
		return err
	}
	m["spillstore.pack_bytes"] = perSplit * float64(len(plan.Splits))
	m["mapreduce.pairs_per_record"] = ppr
	notExercised(rep, "mapreduce.", "cluster.")
	return nil
}
