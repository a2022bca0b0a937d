package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric tables
// the program reports from in step, and checks that the rates and limits
// the workloads' whys state are the ones the code uses.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, c := range []struct {
		name      string
		file, got []metricSpec
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.got) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", c.name, len(c.file), len(c.got))
		}
		for i := range c.file {
			if c.file[i] != c.got[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.name, i, c.file[i], c.got[i])
			}
		}
	}
	var names []string
	whys := map[string]string{}
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		whys[w.Name] = w.Why
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(names)
	if got := strings.Join(workloadNames(), ","); strings.Join(names, ",") != got {
		t.Errorf("BENCHMARK.json workloads %v, code %s", names, got)
	}
	for name, want := range map[string][]string{
		"dense-agg":      {fmt.Sprintf("goodput limit %g s", denseLimit.Seconds())},
		"median-shuffle": {fmt.Sprintf("goodput limit %g s", shuffleLimit.Seconds())},
		"serve-mix": {
			fmt.Sprintf("open loop at %g req/s", serveRate),
			fmt.Sprintf("re-registered every %g s", serveRegisterEvery.Seconds()),
			fmt.Sprintf("Goodput limit %g s", serveLimit.Seconds()),
		},
	} {
		for _, w := range want {
			if !strings.Contains(whys[name], w) {
				t.Errorf("workload %s: why %q does not state %q", name, whys[name], w)
			}
		}
	}
}

// TestLayerMapCoversPerLayer checks that layers.json maps every per-layer
// metric exactly once.
func TestLayerMapCoversPerLayer(t *testing.T) {
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		Layers []struct {
			Layer   string   `json:"layer"`
			Metrics []string `json:"metrics"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(b, &lm); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, l := range lm.Layers {
		for _, m := range l.Metrics {
			seen[m]++
		}
	}
	for _, s := range perLayer {
		if seen[s.Name] != 1 {
			t.Errorf("%s is mapped %d times in layers.json", s.Name, seen[s.Name])
		}
		delete(seen, s.Name)
	}
	for m := range seen {
		t.Errorf("layers.json names %s, which is not a per-layer metric", m)
	}
}

func tinyConfig(t *testing.T, workload string, trace, flip bool) config {
	return config{workload: workload, seed: 7, seconds: 0.8, trace: trace, scale: 0.02, dir: t.TempDir(), flip: flip}
}

// TestTinyRunsEmitEveryMetric runs each workload at a tiny scale, untraced
// and traced, and checks that every named metric is emitted with its unit
// and every result matched its reference.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				cfg := tinyConfig(t, name, trace, false)
				rep, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				line, err := finalLine(rep, specs)
				if err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Failed != 0 {
					t.Fatalf("correct=%v failed=%d of %d: %v", line.Correct, line.Failed, line.Attempted, rep.notes["errors"])
				}
				for _, s := range specs {
					if got := line.Metrics[s.Name].Unit; got != s.Unit {
						t.Errorf("%s: unit %q, want %q", s.Name, got, s.Unit)
					}
				}
				if !trace {
					for _, s := range endToEnd {
						if line.Metrics[s.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v; end-to-end metrics must never be 0", s.Name, line.Metrics[s.Name].Value)
						}
					}
				}
				printHuman(io.Discard, describe(cfg, rep, 0), rep, specs)
			})
		}
	}
}

// TestFlippedBitIsAnError feeds one result with a flipped bit to each
// workload's oracle: the run must count a failure and report incorrect.
func TestFlippedBitIsAnError(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rep, err := workloads[name](tinyConfig(t, name, false, true))
			if err != nil {
				t.Fatal(err)
			}
			line, err := finalLine(rep, endToEnd)
			if err != nil {
				t.Fatal(err)
			}
			if line.Correct || line.Failed == 0 {
				t.Fatalf("flipped bit not caught: correct=%v failed=%d", line.Correct, line.Failed)
			}
			if rate := float64(line.Failed) / float64(line.Attempted); rate <= 0 {
				t.Fatalf("error_rate %v, want > 0", rate)
			}
		})
	}
}
