package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"sidr/internal/core"
	"sidr/internal/datagen"
	"sidr/internal/exec"
	"sidr/internal/mapreduce"
	"sidr/internal/ncfile"
	"sidr/internal/query"
	"sidr/internal/server"
	"sidr/internal/sidx"
)

// dense-agg: the in-process SIDR engine on the daemon's default path (a
// shared task executor sized to GOMAXPROCS, dependency barrier, kv-count
// validation, map-side combining) runs avg over an ncfile-backed 3-D
// float64 variable. The extraction shape is two rows deep along the split
// dimension, so each keyblock depends on few splits and results arrive
// early. Combining folds 512 cells into each pair, so the shuffle is tiny
// and the work is ncfile read → map → combine.
const (
	denseReducers = 8
	denseSetups   = 5
	// denseRegisterEach is how many registrations follow each job of an
	// untraced run, for register_s.
	denseRegisterEach = 1
	// denseLimit is the goodput latency limit, stated in BENCHMARK.json.
	denseLimit = 2 * time.Second
)

// denseShape is the dataset's shape at the given scale; the leading
// (split) dimension shrinks with scale.
func denseShape(scale float64) []int64 {
	return []int64{max(8, int64(128*scale)/2*2), 256, 256}
}

func runDenseAgg(cfg config) (*report, error) {
	rep := newReport()
	shape := denseShape(cfg.scale)
	n := denseSetups
	if cfg.trace {
		n = 1
	}
	sf, reg, err := setups(rep, n, "dense", nil, func() (setFiles, error) {
		return writeAndRegister(cfg.dir, "dense", shape, datagen.Temperature(cfg.seed))
	})
	if err != nil {
		return nil, err
	}
	f, err := ncfile.Open(sf.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reader := &mapreduce.FileReader{File: f, Var: "v"}
	q, err := query.Parse(fmt.Sprintf("avg v[0,0,0 : %d,%d,%d] es {2,16,16}", shape[0], shape[1], shape[2]))
	if err != nil {
		return nil, err
	}
	splitPoints := q.Input.Size()/8 + 1 // sidr.Prepare's default
	planOpts := core.Options{Reducers: denseReducers, SplitPoints: splitPoints}
	cells := q.Input.Size()
	rep.notes["input_cells"] = cells
	rep.notes["query"] = q.String()

	// The reference: one untimed run on a private single-worker pool.
	refPlan, err := core.NewPlan(q, core.EngineSIDR, planOpts)
	if err != nil {
		return nil, err
	}
	refRes, err := refPlan.RunLocal(reader, func(c *mapreduce.Config) { c.Workers = 1 })
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	orc := newOracle(cfg.flip)
	orc.set(q.String(), outputsTable(refRes.Outputs))
	rep.notes["shuffle_bytes_per_job"] = refRes.Counters.ShuffleBytes

	ex := exec.New(runtime.GOMAXPROCS(0))
	defer ex.Close()
	var (
		evMu   sync.Mutex
		events = map[string][]mapreduce.Event{}
		counts []mapreduce.Counters
		plans  []float64
	)
	job := func(i int, tr *tracer) (jobSample, error) {
		traceID := fmt.Sprintf("dense-%04d", i)
		s := jobSample{submit: time.Now()}
		plan, err := core.NewPlan(q, core.EngineSIDR, planOpts)
		if err != nil {
			return s, err
		}
		planned := time.Now()
		var mu sync.Mutex
		res, err := plan.RunLocal(reader, func(c *mapreduce.Config) {
			c.Exec = ex
			c.OnReduceOutput = func(mapreduce.ReduceOutput) {
				now := time.Now()
				mu.Lock()
				if s.first.IsZero() {
					s.first = now
				}
				s.last = now
				mu.Unlock()
			}
			if tr != nil {
				c.OnEvent = func(e mapreduce.Event) {
					evMu.Lock()
					events[traceID] = append(events[traceID], e)
					evMu.Unlock()
				}
			}
		})
		if err != nil {
			return s, err
		}
		s.ok = orc.check(q.String(), outputsTable(res.Outputs)) == nil
		if tr != nil {
			tr.add(span{Trace: traceID, Name: "job", Start: s.submit, End: s.last})
			tr.add(span{Trace: traceID, Name: "core.plan", Start: s.submit, End: planned})
			evMu.Lock()
			addTaskSpans(tr, traceID, events[traceID])
			counts = append(counts, res.Counters)
			plans = append(plans, secs(planned.Sub(s.submit)))
			evMu.Unlock()
		}
		return s, nil
	}

	// Warm the executor, page cache and allocator before timing.
	if err := warmUp(rep, 0, job); err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		p := closedLoop(d, 1, nil, job, registerEach(reg, denseRegisterEach))
		p.account(rep)
		batchEndToEnd(rep, p, chooseQuiet(cfg.steal, p.start, d, rep), denseLimit)
		reg.report(rep, cfg.steal)
		return rep, nil
	}

	// Traced run: an untraced half, then a traced half; the difference is
	// the tracing overhead.
	if err := registerEach(reg, reregisters)(); err != nil {
		return nil, err
	}
	reg.report(rep, cfg.steal)
	plain := closedLoop(d/2, 1, nil, job, nil)
	plain.account(rep)
	tr := newTracer(true)
	traced := closedLoop(d/2, 1+plain.attempts, tr, job, nil)
	traced.account(rep)
	spans := tr.all()
	rep.spans = spans

	var mapTasks, mapBusy, reduceBusy, fracs []float64
	for _, evs := range events {
		mt, rb, frac := taskStats(evs)
		mapTasks = append(mapTasks, mt...)
		mapBusy = append(mapBusy, sum(mt))
		reduceBusy = append(reduceBusy, rb)
		fracs = append(fracs, frac)
	}
	var pairsPer, dispatched []float64
	for _, c := range counts {
		pairsPer = append(pairsPer, ratio(float64(c.MapPairsOut), float64(c.MapRecordsIn)))
		dispatched = append(dispatched, float64(c.TasksDispatched))
	}
	m := rep.metrics
	m["mapreduce.map_busy_s"] = median(mapBusy)
	m["mapreduce.map_task_s.p50"] = median(mapTasks)
	m["mapreduce.map_task_s.max"] = maxOf(mapTasks)
	m["mapreduce.reduce_busy_s"] = median(reduceBusy)
	m["mapreduce.pairs_per_record"] = median(pairsPer)
	m["mapreduce.map_frac_at_first"] = median(fracs)
	m["exec.peak_running"] = float64(ex.Stats().PeakRunning)
	m["exec.dispatched"] = median(dispatched)
	batchGoMetrics(rep, traced)
	m["core.plan_s.p50"] = median(plans)
	m["join.plan_s.p50"] = 0 // no join in this workload
	m["trace.overhead_job_s"] = median(traced.totals()) - median(plain.totals())
	m["trace.overhead_request_s.p50"] = m["trace.overhead_job_s"]
	m["trace.unattributed_frac"] = unattributed(spans, "job")
	rep.notes["self_s"] = selfTimes(spans, "job")

	plan, err := core.NewPlan(q, core.EngineSIDR, planOpts)
	if err != nil {
		return nil, err
	}
	if m["ncfile.read_cells_per_s"], err = replayRead(reader, plan.Splits); err != nil {
		return nil, err
	}
	perSplit, _, err := replayShuffle(plan, reader, filepath.Join(cfg.dir, "replay"), rep)
	if err != nil {
		return nil, err
	}
	m["spillstore.pack_bytes"] = perSplit * float64(len(plan.Splits))
	if m["sidx.pruned_split_ratio"], err = prunedRatio(sf.path, q, planOpts); err != nil {
		return nil, err
	}
	notExercised(rep, "cluster.", "jobs.", "server.", "loadgen.")
	return rep, nil
}

// outputsTable flattens per-keyblock outputs in keyblock order.
func outputsTable(outs []mapreduce.ReduceOutput) table {
	var t table
	for _, o := range outs {
		for i, k := range o.Keys {
			t.Keys = append(t.Keys, k)
			t.Values = append(t.Values, o.Values[i])
		}
	}
	return t
}

// addTaskSpans turns a job's Map/Reduce start and end events into spans.
func addTaskSpans(tr *tracer, traceID string, evs []mapreduce.Event) {
	starts := map[[2]int]time.Time{}
	for _, e := range evs {
		switch e.Kind {
		case mapreduce.MapStart:
			starts[[2]int{0, e.Detail}] = e.At
		case mapreduce.ReduceStart:
			starts[[2]int{1, e.Detail}] = e.At
		case mapreduce.MapEnd:
			tr.add(span{Trace: traceID, Name: "mapreduce.map", Start: starts[[2]int{0, e.Detail}], End: e.At})
		case mapreduce.ReduceEnd:
			tr.add(span{Trace: traceID, Name: "mapreduce.reduce", Start: starts[[2]int{1, e.Detail}], End: e.At})
		}
	}
}

// taskStats returns a job's Map task durations, its summed Reduce task
// time, and the share of its Map tasks finished when the first keyblock
// committed.
func taskStats(evs []mapreduce.Event) (maps []float64, reduceBusy, fracAtFirst float64) {
	starts := map[[2]int]time.Time{}
	var mapEnds []time.Time
	var firstCommit time.Time
	for _, e := range evs {
		switch e.Kind {
		case mapreduce.MapStart:
			starts[[2]int{0, e.Detail}] = e.At
		case mapreduce.ReduceStart:
			starts[[2]int{1, e.Detail}] = e.At
		case mapreduce.MapEnd:
			maps = append(maps, secs(e.At.Sub(starts[[2]int{0, e.Detail}])))
			mapEnds = append(mapEnds, e.At)
		case mapreduce.ReduceEnd:
			reduceBusy += secs(e.At.Sub(starts[[2]int{1, e.Detail}]))
			if firstCommit.IsZero() || e.At.Before(firstCommit) {
				firstCommit = e.At
			}
		}
	}
	done := 0
	for _, t := range mapEnds {
		if !t.After(firstCommit) {
			done++
		}
	}
	return maps, reduceBusy, ratio(float64(done), float64(len(mapEnds)))
}

// prunedRatio replays planning with the dataset's structural index and
// returns the share of splits it pruned (0 for queries without a value
// predicate).
func prunedRatio(path string, q *query.Query, opts core.Options) (float64, error) {
	reg := server.NewRegistry()
	defer reg.Close()
	if err := reg.AddFile("replay", path); err != nil {
		return 0, err
	}
	return pruneShare(q, opts, reg.Index("replay", q.Variable))
}

func pruneShare(q *query.Query, opts core.Options, vi *sidx.VarIndex) (float64, error) {
	opts.Index = vi
	plan, err := core.NewPlan(q, core.EngineSIDR, opts)
	if err != nil {
		return 0, err
	}
	return ratio(float64(plan.PrunedSplits), float64(plan.PrunedSplits+len(plan.Splits))), nil
}

// notExercised reports 0 for every per-layer metric under the given
// prefixes: layers this workload does not run.
func notExercised(rep *report, prefixes ...string) {
	for _, s := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(s.Name, p) {
				if _, ok := rep.metrics[s.Name]; !ok {
					rep.metrics[s.Name] = 0
				}
			}
		}
	}
}
