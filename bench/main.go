// Command hastebench is the repository's seeded benchmark. One invocation
// runs one workload and prints, as the last line of standard output, a
// JSON object with the keys correct, attempted, failed and metrics.
//
//	hastebench --workload fleet-eval --seed 1 --seconds 24 --trace 0 \
//	    --bin .bench_build/bin --work .bench_build/work --ref bench/ref
//
// With --trace 0 the end-to-end metrics are measured through the shipped
// binaries (haste, haste-serve) with tracing off. With --trace 1 the same
// public functions are called in-process, timed from this package around
// every call into a layer, and the per-layer metrics are printed instead.
// bench/run.sh builds the binaries and this driver and is the entry point
// named in BENCHMARK.json; see bench/README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spec is one reported metric.
type spec struct {
	Name, Unit, Better string
}

// endToEnd are the user-visible metrics printed with --trace 0 on every
// workload. Each workload defines its own operation: one `haste eval`, one
// Fig. 16 sweep, or one request of the scored service class.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "frac", "higher"},
	{"op_ms", "ms", "lower"},
}

// perLayer are the per-layer metrics printed with --trace 1 on every
// workload; a layer the workload does not exercise reports 0.
var perLayer = []spec{
	{"instio.decode_ms", "ms", "lower"},
	{"instio.hash_ms", "ms", "lower"},
	{"workload.generate_ms", "ms", "lower"},
	{"core.compile_ms", "ms", "lower"},
	{"core.compile.grid_ms", "ms", "lower"},
	{"core.compile.rows_ms", "ms", "lower"},
	{"core.compile.dominant_ms", "ms", "lower"},
	{"core.compile.kernel_ms", "ms", "lower"},
	{"core.policies", "count", "lower"},
	{"core.cover_entries", "count", "lower"},
	{"core.solve_c1_ms", "ms", "lower"},
	{"core.solve_c4_ms", "ms", "lower"},
	{"core.decompose_ms", "ms", "lower"},
	{"core.evaluate_ms", "ms", "lower"},
	{"core.components", "count", "higher"},
	{"core.shards", "count", "higher"},
	{"core.warm_reused", "count", "higher"},
	{"baseline.greedy_utility_ms", "ms", "lower"},
	{"baseline.greedy_cover_ms", "ms", "lower"},
	{"sim.execute_ms", "ms", "lower"},
	{"online.run_s", "s", "lower"},
	{"online.prepare_s", "s", "lower"},
	{"online.step_s", "s", "lower"},
	{"online.negotiations", "count", "lower"},
	{"online.sessions", "count", "lower"},
	{"online.rounds", "count", "lower"},
	{"online.messages", "count", "lower"},
	{"netsim.run_s", "s", "lower"},
	{"netsim.round_us", "us", "lower"},
	{"transport.build_ms", "ms", "lower"},
	{"transport.run_s", "s", "lower"},
	{"transport.round_us", "us", "lower"},
	{"transport.close_ms", "ms", "lower"},
	{"serve.server_ms.cold", "ms", "lower"},
	{"serve.server_ms.warm", "ms", "lower"},
	{"serve.server_ms.patch", "ms", "lower"},
	{"serve.http_ms", "ms", "lower"},
	{"serve.decode_ms", "ms", "lower"},
	{"serve.queue_ms", "ms", "lower"},
	{"serve.resolve_ms", "ms", "lower"},
	{"serve.patch_apply_ms", "ms", "lower"},
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_misses", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.capacity_rps", "1/s", "higher"},
	{"loadgen.p50_ms", "ms", "lower"},
	{"loadgen.patch_p50_ms", "ms", "lower"},
	{"loadgen.patch_p90_ms", "ms", "lower"},
	{"loadgen.p90_ms", "ms", "lower"},
	{"loadgen.lag_p90_ms", "ms", "lower"},
	{"loadgen.sent", "count", "higher"},
	{"trace.residual_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.counts_moved", "count", "lower"},
}

// workloads maps each workload name to its runner. The reasons each was
// chosen are in BENCHMARK.json and bench/README.md.
var workloads = map[string]func(*env) (*outcome, error){
	"fleet-eval": runFleetEval,
	"fig16-tcp":  runFig16TCP,
	"serve-cold": func(e *env) (*outcome, error) { return runServe(e, classCold) },
	"serve-warm": func(e *env) (*outcome, error) { return runServe(e, classWarm) },
}

// env is what a workload runner gets: its seed, time budget and paths.
type env struct {
	Workload string
	Seed     int64
	Budget   time.Duration
	Trace    bool
	Bin      string // directory holding the haste and haste-serve binaries
	Work     string // scratch directory for generated inputs (removed afterwards)
	Ref      string // directory of reference outputs recorded from the commit that added the benchmark
}

// outcome is a workload run's result before printing.
type outcome struct {
	Attempted, Failed int
	Metrics           map[string]float64
	Flags             []string       // moved counts, failed checks, validity notes
	Unlisted          int            // flags past maxFlags, counted but not kept
	Info              map[string]any // workload-specific provenance (rates, client count)
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Info: map[string]any{}}
}

// maxFlags bounds the flags an outcome keeps, so a program that fails
// every one of many fast operations does not flood the run record.
const maxFlags = 32

// fail records one failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.flag(format, args...)
}

// flag records a note that does not fail an operation.
func (o *outcome) flag(format string, args ...any) {
	if len(o.Flags) >= maxFlags {
		o.Unlisted++
		return
	}
	o.Flags = append(o.Flags, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hastebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hastebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: fleet-eval, fig16-tcp, serve-cold or serve-warm")
	seed := fs.Int64("seed", 1, "input seed (primary 1; hold out 2 for checking later claims)")
	seconds := fs.Int("seconds", 24, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics through the binaries; 1: per-layer metrics in-process")
	bin := fs.String("bin", "", "directory holding the built haste and haste-serve binaries")
	work := fs.String("work", "", "scratch directory")
	ref := fs.String("ref", "bench/ref", "directory of recorded reference outputs")
	record := fs.Bool("record-ref", false, "record the reference outputs of every instance index into --ref and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bin == "" || *work == "" {
		return errors.New("--bin and --work are required (bench/run.sh passes them)")
	}
	for _, name := range []string{"haste", "haste-serve"} {
		if _, err := os.Stat(filepath.Join(*bin, name)); err != nil {
			return fmt.Errorf("binary %s: %w", name, err)
		}
	}
	if *record {
		return recordReferences(*bin, *work, *ref)
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e := &env{
		Workload: *workload, Seed: *seed, Budget: time.Duration(*seconds) * time.Second,
		Trace: *trace == 1, Bin: *bin, Work: dir, Ref: *ref,
	}
	out, err := runner(e)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	return printResult(e, out, os.Stdout)
}

// printResult checks that the outcome carries every metric of the printed set,
// writes the run record and the human-readable table to stderr, and prints
// the result line last on w.
func printResult(e *env, out *outcome, w io.Writer) error {
	set := endToEnd
	if e.Trace {
		set = perLayer
	}
	res := result{
		Correct:   out.Failed == 0 && out.Attempted > 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   make(map[string]metricValue, len(set)),
	}
	for _, s := range set {
		v, ok := out.Metrics[s.Name]
		if !ok {
			return fmt.Errorf("internal: workload did not report %s", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("internal: %s is %v", s.Name, v)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	prov := provenance(e, out)
	fmt.Fprintf(os.Stderr, "hastebench %s seed=%d trace=%v: attempted %d, failed %d\n",
		e.Workload, e.Seed, e.Trace, res.Attempted, res.Failed)
	for _, f := range out.Flags {
		fmt.Fprintln(os.Stderr, "  flag:", f)
	}
	if out.Unlisted > 0 {
		fmt.Fprintf(os.Stderr, "  flag: %d more not listed\n", out.Unlisted)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	record := map[string]any{"provenance": prov, "result": res, "flags": out.Flags, "flags_unlisted": out.Unlisted}
	if err := writeRecord(e, record); err != nil {
		fmt.Fprintln(os.Stderr, "hastebench: run record:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeRecord keeps the full run record (provenance, result, flags) next
// to the scratch directory, one file per workload, seed and trace mode.
func writeRecord(e *env, record map[string]any) error {
	dir := filepath.Join(filepath.Dir(e.Work), "..", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if e.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", e.Workload, e.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
