package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/mapreduce"
	"sidr/internal/metrics"
	"sidr/internal/query"
)

// holisticCase is one seeded holistic query over a synthetic dataset.
type holisticCase struct {
	name     string
	op       string
	query    string
	dataset  DatasetSpec
	shape    []int64 // input shape, origin 0
	es       []int64 // extraction shape; tiles shape exactly
	reducers int
	split    int64
}

// holisticCases draws seeded queries for median, percentile 90 and
// sort: random tile shapes, reducer counts and split sizes over a
// continuous (gaussian) or tie-heavy (integers) generator.
func holisticCases(seed int64, n int) []holisticCase {
	r := rand.New(rand.NewSource(seed))
	shape := []int64{24, 12, 10}
	divisors := [][]int64{{1, 2, 3, 4, 6}, {1, 2, 3, 4, 6, 12}, {1, 2, 5, 10}}
	var out []holisticCase
	for i := 0; i < n; i++ {
		for _, op := range []string{"median", "percentile", "sort"} {
			es := make([]int64, len(shape))
			for d := range es {
				es[d] = divisors[d][r.Intn(len(divisors[d]))]
			}
			gen := "gaussian"
			if r.Intn(2) == 0 {
				gen = "integers"
			}
			q := fmt.Sprintf("%s v[0,0,0 : %d,%d,%d] es {%d,%d,%d}", op,
				shape[0], shape[1], shape[2], es[0], es[1], es[2])
			if op == "percentile" {
				q += " param 90"
			}
			out = append(out, holisticCase{
				name:     fmt.Sprintf("%s-%d", op, i),
				op:       op,
				query:    q,
				dataset:  DatasetSpec{Kind: "synthetic", Generator: gen, Seed: r.Int63n(1000), Shape: shape},
				shape:    shape,
				es:       es,
				reducers: 1 + r.Intn(5),
				split:    int64(200 + r.Intn(800)),
			})
		}
	}
	return out
}

// reference evaluates the case naively: every source cell is bucketed by
// its tile, each tile's samples are sorted, and the operator is applied
// by its textbook definition.
func (hc holisticCase) reference(t *testing.T) map[string][]float64 {
	t.Helper()
	fn, err := GeneratorFunc(hc.dataset)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string][]float64)
	var walk func(c coords.Coord, d int)
	walk = func(c coords.Coord, d int) {
		if d == len(hc.shape) {
			k := make(coords.Coord, len(c))
			for i := range c {
				k[i] = c[i] / hc.es[i]
			}
			samples[k.String()] = append(samples[k.String()], fn(c))
			return
		}
		for x := int64(0); x < hc.shape[d]; x++ {
			c[d] = x
			walk(c, d+1)
		}
	}
	walk(make(coords.Coord, len(hc.shape)), 0)
	want := make(map[string][]float64, len(samples))
	for k, s := range samples {
		sort.Float64s(s)
		switch hc.op {
		case "median":
			if len(s)%2 == 1 {
				want[k] = []float64{s[len(s)/2]}
			} else {
				want[k] = []float64{(s[len(s)/2-1] + s[len(s)/2]) / 2}
			}
		case "sort":
			want[k] = s
		default: // percentile 90, nearest rank
			want[k] = []float64{s[int(math.Ceil(0.9*float64(len(s))))-1]}
		}
	}
	return want
}

// assertMatchesReference compares a result's rows with the reference
// bit for bit, and requires every reference key to appear exactly once.
func assertMatchesReference(t *testing.T, path string, want map[string][]float64, keys []coords.Coord, vals [][]float64) {
	t.Helper()
	if len(keys) != len(want) {
		t.Fatalf("%s: %d result keys, reference has %d", path, len(keys), len(want))
	}
	seen := make(map[string]bool, len(keys))
	for i, k := range keys {
		ks := k.String()
		w, ok := want[ks]
		if !ok || seen[ks] {
			t.Fatalf("%s: unexpected or repeated key %s", path, ks)
		}
		seen[ks] = true
		if len(vals[i]) != len(w) {
			t.Fatalf("%s: key %s has %d values, reference %d", path, ks, len(vals[i]), len(w))
		}
		for j := range w {
			if math.Float64bits(vals[i][j]) != math.Float64bits(w[j]) {
				t.Fatalf("%s: key %s value %d = %v, reference %v", path, ks, j, vals[i][j], w[j])
			}
		}
	}
}

// TestHolisticDifferential runs seeded holistic queries through the
// in-process engine (combiner on and off, unbounded and bounded sort
// buffer, so multi-segment concatenation merges run) and the clustered
// runtime (batched and per-spill fetch), comparing each result with a
// naive per-key reference by Float64bits. The in-process runs validate
// the §3.2.1 kv-count tally on every reduce.
func TestHolisticDifferential(t *testing.T) {
	for _, hc := range holisticCases(12, 2) {
		hc := hc
		t.Run(hc.name, func(t *testing.T) {
			want := hc.reference(t)
			q, err := query.Parse(hc.query)
			if err != nil {
				t.Fatal(err)
			}
			reader, _, err := OpenDataset(hc.dataset)
			if err != nil {
				t.Fatal(err)
			}
			for _, combine := range []bool{true, false} {
				for _, sortBuf := range []int64{0, 37} {
					plan, err := core.NewPlan(q, core.EngineSIDR, core.Options{Reducers: hc.reducers, SplitPoints: hc.split})
					if err != nil {
						t.Fatal(err)
					}
					res, err := plan.RunLocal(reader, func(cfg *mapreduce.Config) {
						cfg.Combine = combine
						cfg.SortBufferRecords = sortBuf
					})
					if err != nil {
						t.Fatalf("in-process combine=%v sortbuf=%d: %v", combine, sortBuf, err)
					}
					var keys []coords.Coord
					var vals [][]float64
					for _, o := range res.Outputs {
						keys = append(keys, o.Keys...)
						vals = append(vals, o.Values...)
					}
					assertMatchesReference(t, fmt.Sprintf("in-process combine=%v sortbuf=%d", combine, sortBuf),
						want, keys, vals)
				}
			}
			for _, disableBatch := range []bool{false, true} {
				c, _ := startCluster(t, 2, CoordinatorConfig{Metrics: metrics.New(), DisableBatchFetch: disableBatch})
				t.Cleanup(c.Close)
				res, err := runClusterJob(t, c, func(s *JobSpec) {
					s.Plan = JobPlan{Query: hc.query, Engine: "sidr", Reducers: hc.reducers, SplitPoints: hc.split}
					s.Dataset = hc.dataset
				})
				if err != nil {
					t.Fatalf("clustered DisableBatchFetch=%v: %v", disableBatch, err)
				}
				var keys []coords.Coord
				var vals [][]float64
				for _, o := range res.Outputs {
					keys = append(keys, o.Keys...)
					vals = append(vals, o.Values...)
				}
				assertMatchesReference(t, fmt.Sprintf("clustered DisableBatchFetch=%v", disableBatch), want, keys, vals)
			}
		})
	}
}
