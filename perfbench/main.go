// Command perfbench is the repository benchmark. One invocation runs one
// named workload against the system built from this checkout, checks every
// result against a reference computed by the in-process engine, and prints
// its metrics: human-readable lines first, then, as the last line of
// standard output, one JSON object
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (see endToEnd); with
// --trace 1 they are the per-layer set (see perLayer), derived from spans
// the benchmark records around its calls into each layer. Spans stay in
// memory and are written, with a self-describing record of the run, under
// --out when the run ends.
//
// The workloads (see BENCHMARK.json for why each exists):
//
//	dense-agg       in-process SIDR engine, avg over an ncfile variable
//	median-shuffle  coordinator + 2 loopback workers, holistic median
//	serve-mix       registry → jobs.Manager → server.Server, open loop
//
// Usage:
//
//	perfbench --workload dense-agg --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricSpec is one metric of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports every one of them in an untraced run. The batch workloads are a
// single closed-loop client whose requests are its jobs, so there
// request_s.* are percentiles of job_s.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"job_s", "s", "lower", 0.25},
	{"first_result_s", "s", "lower", 0.25},
	{"request_s.p50", "s", "lower", 0.25},
	{"request_s.p90", "s", "lower", 0.25},
	{"goodput_rps", "req/s", "higher", 0.25},
	{"register_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the metrics of single layers, reported by traced runs.
// A layer a workload does not exercise reports 0; the mapping from each
// metric to the end-to-end metric it should move is in layers.json.
var perLayer = []metricSpec{
	{"ncfile.read_cells_per_s", "cells/s", "higher", 0},
	{"mapreduce.map_busy_s", "s", "lower", 0},
	{"mapreduce.map_task_s.p50", "s", "lower", 0},
	{"mapreduce.map_task_s.max", "s", "lower", 0},
	{"mapreduce.reduce_busy_s", "s", "lower", 0},
	{"mapreduce.pairs_per_record", "ratio", "lower", 0},
	{"mapreduce.map_frac_at_first", "ratio", "lower", 0},
	{"exec.peak_running", "count", "higher", 0},
	{"exec.dispatched", "count", "lower", 0},
	{"kv.encode_mb_per_s", "MB/s", "higher", 0},
	{"kv.decode_mb_per_s", "MB/s", "higher", 0},
	{"kv.decode_alloc_bytes_per_byte", "B/B", "lower", 0},
	{"kv.spill_bytes_per_cell", "B/cell", "lower", 0},
	{"kv.merge_pairs_per_s", "pairs/s", "higher", 0},
	{"spillstore.commit_s.p50", "s", "lower", 0},
	{"spillstore.pack_bytes", "B", "lower", 0},
	{"cluster.map_rpc_s.p50", "s", "lower", 0},
	{"cluster.map_handler_s.p50", "s", "lower", 0},
	{"cluster.dispatch_overhead_s.p50", "s", "lower", 0},
	{"cluster.map_busy_s", "s", "lower", 0},
	{"cluster.fetch_requests", "count", "lower", 0},
	{"cluster.fetch_bytes", "B", "lower", 0},
	{"cluster.fetch_busy_s", "s", "lower", 0},
	{"cluster.fetch_serve_busy_s", "s", "lower", 0},
	{"cluster.fetch_retries", "count", "lower", 0},
	{"cluster.replica_pushes", "count", "lower", 0},
	{"cluster.replica_bytes", "B", "lower", 0},
	{"cluster.replicate_busy_s", "s", "lower", 0},
	{"cluster.map_frac_at_first", "ratio", "lower", 0},
	{"cluster.commit_spread_s", "s", "lower", 0},
	{"go.alloc_mb_per_job", "MB", "lower", 0},
	{"go.gc_cycles_per_job", "count", "lower", 0},
	{"core.plan_s.p50", "s", "lower", 0},
	{"join.plan_s.p50", "s", "lower", 0},
	{"sidx.pruned_split_ratio", "ratio", "higher", 0},
	{"sidx.index_build_s", "s", "lower", 0},
	{"jobs.queue_wait_s.p50", "s", "lower", 0},
	{"jobs.execute_s.p50", "s", "lower", 0},
	{"jobs.result_cache_hit_ratio", "ratio", "higher", 0},
	{"jobs.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"jobs.collapsed", "count", "higher", 0},
	{"jobs.refused", "count", "lower", 0},
	{"server.submit_s.p50", "s", "lower", 0},
	{"server.stream_s.p50", "s", "lower", 0},
	{"server.stream_bytes.p50", "B", "lower", 0},
	{"loadgen.late_s.max", "s", "lower", 0},
	{"trace.overhead_job_s", "s", "lower", 0},
	{"trace.overhead_request_s.p50", "s", "lower", 0},
	{"trace.unattributed_frac", "ratio", "lower", 0},
}

// config is one invocation's settings. scale shrinks every input (1 is the
// benchmark's size; the benchmark's own tests run far smaller), and flip,
// a test hook, corrupts one result before the oracle sees it.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	dir      string // per-run scratch data, removed at exit
	flip     bool
	steal    *stealMonitor // nil reports no steal
}

// report is what a workload run produces.
type report struct {
	attempted int
	failed    int
	wrong     int // results that differ from the reference (subset of failed)
	metrics   map[string]float64
	// notes are self-description: input sizes, counts behind each
	// metric, per-layer self times. They go to the human-readable lines
	// and the result record, never into the final JSON line.
	notes map[string]any
	spans []span
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, notes: map[string]any{}}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"dense-agg":      runDenseAgg,
	"median-shuffle": runMedianShuffle,
	"serve-mix":      runServeMix,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: dense-agg, median-shuffle or serve-mix")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 15, "length of the measured phase in seconds")
		traceOn  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
		out      = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run data, result records and traces")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceOn, *out, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traceOn int, out string, stdout io.Writer) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames(), ", "))
	}
	if traceOn != 0 && traceOn != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceOn)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	steal := startStealMonitor()
	defer steal.close()
	cfg := config{workload: workload, seed: seed, seconds: seconds, trace: traceOn == 1, scale: 1, dir: dir, steal: steal}
	started := time.Now()
	rep, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	final, err := finalLine(rep, specs)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	desc := describe(cfg, rep, time.Since(started))
	printHuman(stdout, desc, rep, specs)
	if err := writeRecord(out, cfg, desc, rep, final); err != nil {
		return err
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one entry of the final line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the final line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finalLine builds the result line, refusing a report that lacks one of
// the metrics the specs name or holds a value JSON cannot carry.
func finalLine(rep *report, specs []metricSpec) (resultLine, error) {
	line := resultLine{
		Correct:   rep.wrong == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	if rep.attempted < 1 {
		return line, errors.New("no operation was attempted")
	}
	for _, s := range specs {
		v, ok := rep.metrics[s.Name]
		if !ok {
			return line, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if !isFinite(v) {
			return line, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		line.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return line, nil
}

func printHuman(w io.Writer, desc map[string]any, rep *report, specs []metricSpec) {
	fmt.Fprintf(w, "perfbench %s seed=%v trace=%v host=%v nproc=%v gomaxprocs=%v go=%v commit=%v\n",
		desc["workload"], desc["seed"], desc["trace"], desc["host"], desc["nproc"],
		desc["gomaxprocs"], desc["go_version"], desc["commit"])
	errRate := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(w, "  attempted=%d failed=%d wrong=%d error_rate=%.6f ratio\n",
		rep.attempted, rep.failed, rep.wrong, errRate)
	for _, s := range specs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", s.Name, rep.metrics[s.Name], s.Unit)
	}
	keys := make([]string, 0, len(rep.notes))
	for k := range rep.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(rep.notes[k])
		fmt.Fprintf(w, "  note %s = %s\n", k, b)
	}
}

// writeRecord saves the self-describing result record and, for traced
// runs, every recorded span.
func writeRecord(out string, cfg config, desc map[string]any, rep *report, final resultLine) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d-%d", cfg.workload, cfg.seed, btoi(cfg.trace), time.Now().UnixNano())
	rec := map[string]any{"describe": desc, "notes": rep.notes, "result": final}
	if err := writeJSON(filepath.Join(dir, stem+".json"), rec); err != nil {
		return err
	}
	if len(rep.spans) > 0 {
		return writeJSON(filepath.Join(dir, stem+".spans.json"), rep.spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
