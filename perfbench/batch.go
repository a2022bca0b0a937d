package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/server"
)

// The batch workloads (dense-agg, median-shuffle) are one closed-loop
// client: it submits a job, waits for its last keyblock, checks the
// result, and submits the next, until the measured phase is over.

// jobSample is one timed job.
type jobSample struct {
	submit, first, last time.Time
	ok                  bool
	rss                 float64   // peak resident MB while the job ran
	mem                 memSample // heap counters after the job (traced runs)
	memBefore           memSample
}

func (s jobSample) total() float64 { return secs(s.last.Sub(s.submit)) }
func (s jobSample) firstResult() float64 {
	return secs(s.first.Sub(s.submit))
}

// jobFunc runs job i; tr is nil in untraced phases. A returned error is a
// failed job (counted, never retried); a wrong result is reported through
// ok=false with err == nil.
type jobFunc func(i int, tr *tracer) (jobSample, error)

// phase is the outcome of one closed-loop measured phase.
type phase struct {
	start    time.Time
	samples  []jobSample
	errs     []string
	attempts int
	// rssScope notes a peak resident size that covers the whole process
	// because the kernel refused to reset its high-water mark.
	rssScope string
}

// closedLoop runs jobs back to back for d (the job under way at the
// deadline finishes), starting numbering at first. It clears the
// resident-set high-water mark before each job, so every job carries its
// own peak; between, when non-nil, runs after each job, outside its
// timing, and counts as one more attempted operation.
func closedLoop(d time.Duration, first int, tr *tracer, job jobFunc, between func() error) phase {
	resetPeakRSS()
	p := phase{start: time.Now()}
	for i := first; time.Since(p.start) < d; i++ {
		p.attempts++
		if !clearPeakRSS() {
			p.rssScope = "whole process"
		}
		var before memSample
		if tr != nil {
			before = readMem()
		}
		s, err := job(i, tr)
		if err != nil {
			p.errs = append(p.errs, err.Error())
		} else {
			s.rss = peakRSSMB()
			if tr != nil {
				s.memBefore, s.mem = before, readMem()
			}
			p.samples = append(p.samples, s)
		}
		if between != nil {
			p.attempts++
			if err := between(); err != nil {
				p.errs = append(p.errs, err.Error())
			}
		}
	}
	return p
}

// within keeps the jobs submitted in the window's segments.
func (p phase) within(q quietWindow) phase {
	out := p
	out.samples = nil
	for _, s := range p.samples {
		if q.keeps(s.submit) {
			out.samples = append(out.samples, s)
		}
	}
	return out
}

func (p phase) totals() []float64 {
	var xs []float64
	for _, s := range p.samples {
		xs = append(xs, s.total())
	}
	return xs
}

func (p phase) firsts() []float64 {
	var xs []float64
	for _, s := range p.samples {
		xs = append(xs, s.firstResult())
	}
	return xs
}

// warmUp runs an unmeasured job, to warm executors, caches and the
// allocator; its result is checked and counted like any other.
func warmUp(rep *report, i int, job jobFunc) error {
	s, err := job(i, nil)
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	rep.attempted++
	if !s.ok {
		rep.failed++
		rep.wrong++
	}
	return nil
}

// account adds the phase's attempts and failures to the report.
func (p phase) account(rep *report) {
	rep.attempted += p.attempts
	rep.failed += len(p.errs)
	for _, s := range p.samples {
		if !s.ok {
			rep.failed++
			rep.wrong++
		}
	}
	if len(p.errs) > 0 {
		rep.notes["errors"] = p.errs
	}
}

// batchEndToEnd sets the job-latency metrics of a batch workload from the
// phase's jobs in its quiet window. Goodput counts correct jobs within
// limit per second of those jobs' time. peak_rss_mb is the median of every
// job's peak, which the steal of its segment does not move.
func batchEndToEnd(rep *report, all phase, q quietWindow, limit time.Duration) {
	p := all.within(q)
	totals := p.totals()
	rep.metrics["job_s"] = median(totals)
	rep.metrics["first_result_s"] = median(p.firsts())
	rep.metrics["request_s.p50"] = median(totals)
	rep.metrics["request_s.p90"] = quantile(totals, 0.9)
	good := 0
	for _, s := range p.samples {
		if s.ok && s.last.Sub(s.submit) <= limit {
			good++
		}
	}
	rep.metrics["goodput_rps"] = ratio(float64(good), sum(totals))
	var rss []float64
	for _, s := range all.samples {
		rss = append(rss, s.rss)
	}
	rep.metrics["peak_rss_mb"] = median(rss)
	if all.rssScope != "" {
		rep.notes["peak_rss_scope"] = all.rssScope
	}
	rep.notes["jobs"] = len(all.samples)
	rep.notes["jobs_reported"] = len(p.samples)
	rep.notes["latency_limit_s"] = limit.Seconds()
}

// batchGoMetrics sets the per-job Go heap metrics from a traced phase.
func batchGoMetrics(rep *report, p phase) {
	var allocs, gcs []float64
	for _, s := range p.samples {
		allocs = append(allocs, float64(s.mem.alloc-s.memBefore.alloc)/(1<<20))
		gcs = append(gcs, float64(s.mem.gcs-s.memBefore.gcs))
	}
	rep.metrics["go.alloc_mb_per_job"] = median(allocs)
	rep.metrics["go.gc_cycles_per_job"] = median(gcs)
}

// setFiles is a batch workload's set-up product: a generated dataset
// written to an ncfile container and registered (index built) through the
// daemon's registry, as sidrd does at start.
type setFiles struct {
	path       string
	register   timed
	indexBuild float64 // seconds, as the registry reports it
}

// writeAndRegister writes the dataset and registers it.
func writeAndRegister(dir, name string, shape []int64, fn func(coords.Coord) float64) (setFiles, error) {
	path := filepath.Join(dir, name+".ncf")
	if err := datagen.WriteDataset(path, "v", coords.NewShape(shape...), fn); err != nil {
		return setFiles{}, fmt.Errorf("writing %s: %w", path, err)
	}
	return register(name, path)
}

// register registers the container with a fresh registry and reports how
// long that took. The sidx sidecar an earlier registration saved is
// removed first, so every registration builds its index.
func register(name, path string) (setFiles, error) {
	_ = os.Remove(path + ".sidx") // absent on the first registration
	reg := server.NewRegistry()
	defer reg.Close()
	start := time.Now()
	if err := reg.AddFile(name, path); err != nil {
		return setFiles{}, err
	}
	sf := setFiles{path: path, register: timed{at: start, took: time.Since(start)}}
	for _, d := range reg.List() {
		for _, v := range d.Variables {
			sf.indexBuild += v.IndexBuildMs / 1000
		}
	}
	return sf, nil
}

// registrar times registrations of a batch workload's dataset, for
// register_s and sidx.index_build_s.
type registrar struct {
	name, path string
	regs       []timed
	builds     []float64 // seconds
}

func (r *registrar) add(sf setFiles) {
	r.path = sf.path
	r.regs = append(r.regs, sf.register)
	r.builds = append(r.builds, sf.indexBuild)
}

// again registers the dataset once more.
func (r *registrar) again() error {
	sf, err := register(r.name, r.path)
	if err != nil {
		return err
	}
	r.add(sf)
	return nil
}

// report sets register_s (see quietMedian) and sidx.index_build_s over
// every registration so far.
func (r *registrar) report(rep *report, steal *stealMonitor) {
	var used int
	rep.metrics["register_s"], used = quietMedian(steal, r.regs)
	rep.metrics["sidx.index_build_s"] = median(r.builds)
	rep.notes["registrations"] = len(r.regs)
	rep.notes["registrations_reported"] = used
}

// setups repeats a set-up n times and reports setup_s as the median;
// teardown, when non-nil, undoes the previous set-up before the next one,
// outside its timing. It returns the last set-up's product and a
// registrar holding every set-up's registration.
func setups(rep *report, n int, name string, teardown func(), fn func() (setFiles, error)) (setFiles, *registrar, error) {
	var totals []float64
	var last setFiles
	reg := &registrar{name: name}
	for i := 0; i < n; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		start := time.Now()
		sf, err := fn()
		if err != nil {
			return sf, nil, err
		}
		totals = append(totals, secs(time.Since(start)))
		reg.add(sf)
		last = sf
	}
	rep.metrics["setup_s"] = median(totals)
	rep.notes["setups"] = n
	return last, reg, nil
}

// reregisters is how many registrations of the set-up dataset a traced
// run times for sidx.index_build_s after its set-up.
const reregisters = 15

// registerEach returns a closedLoop hook that registers the dataset n
// times after every job. Spreading registrations over the measured phase
// keeps a stretch of contention from touching all of them at once.
func registerEach(reg *registrar, n int) func() error {
	return func() error {
		for i := 0; i < n; i++ {
			if err := reg.again(); err != nil {
				return err
			}
		}
		return nil
	}
}
