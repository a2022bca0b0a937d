package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// On a shared virtual machine the hypervisor periodically gives this
// guest's CPU time to other guests ("steal"). Every workload here keeps
// both vCPUs busy, so a stretch of steal slows everything measured in it,
// and such stretches come and go over seconds to minutes. The end-to-end
// metrics are therefore reported from the quiet part of the measured
// phase: the phase is cut into equal segments, and the samples that
// started in segments where steal stayed at or below quietSteal are kept;
// when fewer than minQuiet segments are that quiet, the minQuiet least
// stolen ones are. Every run records each segment's steal and which
// segments it used, and failures count whichever segment they fall in.
const (
	quietSegments = 10
	quietSteal    = 0.02
	minQuiet      = 4
	stealEvery    = 100 * time.Millisecond
)

// cpuSample is a reading of the machine's cumulative CPU counters.
type cpuSample struct {
	at           time.Time
	total, steal float64
}

// stealMonitor samples the machine's CPU counters in the background. A nil
// monitor reports no steal.
type stealMonitor struct {
	mu      sync.Mutex
	samples []cpuSample
	stop    chan struct{}
	done    chan struct{}
}

// startStealMonitor starts sampling; close stops it.
func startStealMonitor() *stealMonitor {
	m := &stealMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMonitor) sample() {
	total, steal := cpuTimes()
	m.mu.Lock()
	m.samples = append(m.samples, cpuSample{at: time.Now(), total: total, steal: steal})
	m.mu.Unlock()
}

// close stops sampling and waits for the sampler to exit.
func (m *stealMonitor) close() {
	if m == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.sample()
}

// share is the fraction of the machine's CPU time stolen between a and b,
// from the last sample at or before a to the first at or after b.
func (m *stealMonitor) share(a, b time.Time) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.samples)
	if n < 2 {
		return 0
	}
	i := sort.Search(n, func(k int) bool { return m.samples[k].at.After(a) }) - 1
	j := sort.Search(n, func(k int) bool { return !m.samples[k].at.Before(b) })
	i, j = max(i, 0), min(j, n-1)
	if j <= i {
		return 0
	}
	return ratio(m.samples[j].steal-m.samples[i].steal, m.samples[j].total-m.samples[i].total)
}

// quietWindow is the part of a measured phase the end-to-end metrics are
// taken from.
type quietWindow struct {
	start time.Time
	seg   time.Duration
	use   [quietSegments]bool
}

// chooseQuiet picks the segments of the phase [start, start+d] to report
// from and notes each segment's steal.
func chooseQuiet(m *stealMonitor, start time.Time, d time.Duration, rep *report) quietWindow {
	q := quietWindow{start: start, seg: d / quietSegments}
	shares := make([]float64, quietSegments)
	order := make([]int, quietSegments)
	quiet := 0
	for i := range shares {
		a := start.Add(time.Duration(i) * q.seg)
		shares[i] = m.share(a, a.Add(q.seg))
		order[i] = i
		if shares[i] <= quietSteal {
			q.use[i] = true
			quiet++
		}
	}
	if quiet < minQuiet {
		sort.SliceStable(order, func(a, b int) bool { return shares[order[a]] < shares[order[b]] })
		for _, i := range order[:minQuiet] {
			q.use[i] = true
		}
	}
	var used []int
	notes := make([]string, quietSegments)
	for i, s := range shares {
		notes[i] = fmt.Sprintf("%.3f", s)
		if q.use[i] {
			used = append(used, i)
		}
	}
	rep.notes["segment_steal"] = notes
	rep.notes["segments_used"] = used
	return q
}

// index is the segment a sample that started at t belongs to.
func (q quietWindow) index(t time.Time) int {
	return min(max(int(t.Sub(q.start)/q.seg), 0), quietSegments-1)
}

// keeps reports whether a sample that started at t is in a used segment.
func (q quietWindow) keeps(t time.Time) bool { return q.use[q.index(t)] }

// timed is one timed operation outside the measured phase, such as a
// dataset registration.
type timed struct {
	at   time.Time
	took time.Duration
}

// quietMedian is the median duration, in seconds, of the operations during
// which steal stayed at or below quietSteal, or of the minQuiet least
// stolen ones when fewer were that quiet. It also returns how many it used.
func quietMedian(m *stealMonitor, ops []timed) (float64, int) {
	shares := make([]float64, len(ops))
	order := make([]int, len(ops))
	for i, op := range ops {
		shares[i] = m.share(op.at, op.at.Add(op.took))
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return shares[order[a]] < shares[order[b]] })
	var xs []float64
	for k, i := range order {
		if shares[i] > quietSteal && k >= minQuiet {
			break
		}
		xs = append(xs, secs(ops[i].took))
	}
	return median(xs), len(xs)
}
