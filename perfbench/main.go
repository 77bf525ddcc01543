// Command perfbench is the repository's repeatable, layer-by-layer
// benchmark. One run measures one workload for a fixed time, checks every
// output it produced against library ground truth, and prints one JSON
// result line last on standard output.
//
// Usage (from the repository root; run.sh builds everything first):
//
//	sh perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	paper-grid   the paper's Figures 2-5 grid, Table 5 infinite-cache cells
//	             and the dynamic-scheduling baselines, through the mtsim
//	             library facade in this process (no daemons)
//	cold-start   one mtserve: cold /v1/simulate cells, a kill -9 restart
//	             over the same store, then warm closed-loop cache hits
//	serve-sweep  one cold /v1/sweep through mtserve, then the same sweep
//	             through mtcoord with two workers, then warm requests
//	             through the coordinator
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run. The end-to-end
// metric names are shared by all workloads because every run must report
// every one; layers.json maps them onto each workload's paths.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"refs_per_s", "1/s"},
	{"cold_cells_per_s", "1/s"},
	{"second_path_cells_per_s", "1/s"},
	{"warm_p50_ms", "ms"},
	{"warm_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order. A
// layer the workload's path does not reach reports 0.
var perLayer = []metricDef{
	{"workload.build_ms", "ms"},
	{"workload.refs", "count"},
	{"analysis.analyze_ms", "ms"},
	{"analysis.sharing_ms", "ms"},
	{"analysis.alloc_mb", "MB"},
	{"placement.place_ms", "ms"},
	{"placement.calls", "count"},
	{"sim.run_ms", "ms"},
	{"sim.refs_per_s", "1/s"},
	{"sim.infinite_run_ms", "ms"},
	{"sim.alloc_mb_per_run", "MB"},
	{"sim.dynamic_run_ms", "ms"},
	{"sim.runs", "count"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.resolve_ms", "ms"},
	{"serve.cache_lookup_ms", "ms"},
	{"serve.engine_ms", "ms"},
	{"serve.singleflight_wait_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.cache_hit_rate", "ratio"},
	{"serve.sim_runs", "count"},
	{"store.lookup_ms", "ms"},
	{"store.hit_rate", "ratio"},
	{"store.restart_ready_ms", "ms"},
	{"cluster.leases", "count"},
	{"cluster.cells_per_lease", "count"},
	{"cluster.steals", "count"},
	{"cluster.requeues", "count"},
	{"cluster.lease_harvest_p50_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"obs.trace_overhead_pct", "%"},
}

// report is what one workload run hands back to main.
type report struct {
	attempted, failed int64
	// divergences lists every output that did not match ground truth.
	divergences []string
	// metrics holds the end-to-end values (untraced) or the per-layer
	// values (traced).
	metrics map[string]float64
	// named restates the end-to-end values under the workload-specific
	// names layers.json uses (cold_cells_per_s, restart_cells_per_s, ...).
	named map[string]metricValue
	// notes carries sample counts, percentile levels and cycle counts
	// into the run record.
	notes map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, named: map[string]metricValue{}, notes: map[string]any{}}
}

// set records one metric under its shared name and, when named is not
// empty, under the workload-specific name too.
func (r *report) set(metric, named string, v float64) {
	r.metrics[metric] = v
	if named != "" {
		r.named[named] = metricValue{Value: v, Unit: unitOf(metric)}
	}
}

// unitOf returns the unit of a listed metric.
func unitOf(metric string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == metric {
				return d.unit
			}
		}
	}
	return ""
}

// diverge records one output mismatch.
func (r *report) diverge(format string, args ...any) {
	r.divergences = append(r.divergences, fmt.Sprintf(format, args...))
}

// opResult counts one attempted operation, failed when err is non-nil.
func (r *report) opResult(err error) {
	r.attempted++
	if err != nil {
		r.failed++
	}
}

// bench is the state of one benchmark run.
type bench struct {
	seed    int64
	seconds time.Duration
	trace   bool
	bin     string // directory holding the mtserve and mtcoord binaries
	work    string // scratch directory for daemon logs and stores
	procs   *procSet
	// corrupt, when set, alters the first result a run checks; the
	// benchmark's own tests use it to prove the output check rejects it.
	corrupt bool
}

// workloadFunc runs one workload.
type workloadFunc func(ctx context.Context, b *bench) (*report, error)

var workloads = map[string]workloadFunc{
	"paper-grid":  func(ctx context.Context, b *bench) (*report, error) { return runGrid(ctx, b, defaultGrid()) },
	"cold-start":  func(ctx context.Context, b *bench) (*report, error) { return runColdStart(ctx, b, defaultCold()) },
	"serve-sweep": func(ctx context.Context, b *bench) (*report, error) { return runSweep(ctx, b, defaultSweep()) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: paper-grid, cold-start or serve-sweep")
		seed    = fs.Int64("seed", 1, "workload seed (workload generation parameter)")
		seconds = fs.Int("seconds", 30, "measuring time of the run in seconds")
		trace   = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		root    = fs.String("root", ".", "repository root (for the run record)")
		bin     = fs.String("bin", "", "directory holding the built mtserve and mtcoord binaries")
		work    = fs.String("work", "", "scratch directory for daemon logs and stores")
		probe   = fs.Bool("ready-probe", false, "internal: initialise the library, print ready and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		return readyProbe(stdout)
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" || *work == "" {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0|1, -bin and -work")
		return 2
	}
	runDir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		bin:     *bin,
		work:    runDir,
		procs:   &procSet{},
	}
	defer b.procs.stopAll()

	start := time.Now()
	rep, err := wl(ctx, b)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	b.procs.stopAll()

	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	rec := runRecord(*root, *name, b, time.Since(start))
	rec["notes"] = rep.notes
	rec["named_metrics"] = rep.named
	rec["divergences"] = rep.divergences
	if line, err := json.Marshal(map[string]any{"record": rec}); err == nil {
		fmt.Fprintf(stdout, "%s\n", line)
	}
	printHuman(stderr, *name, rep, defs)

	res, err := result(rep, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d output divergence(s); first: %s\n", len(rep.divergences), rep.divergences[0])
		return 1
	}
	return 0
}

// resultLine is the final stdout line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the final line, insisting that the report carries
// exactly the metrics defs names.
func result(rep *report, defs []metricDef) (*resultLine, error) {
	if rep.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	out := &resultLine{
		Correct:   len(rep.divergences) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(rep.metrics) != len(defs) {
		var extra []string
		for k := range rep.metrics {
			if _, ok := out.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("unlisted metrics %v", extra)
	}
	return out, nil
}

// printHuman writes the metrics, and the workload-specific names of the
// end-to-end ones, as aligned text on w.
func printHuman(w io.Writer, name string, rep *report, defs []metricDef) {
	fmt.Fprintf(w, "perfbench %s: attempted=%d failed=%d divergences=%d\n",
		name, rep.attempted, rep.failed, len(rep.divergences))
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14s %s\n", d.name, strconv.FormatFloat(rep.metrics[d.name], 'g', 6, 64), d.unit)
	}
	keys := make([]string, 0, len(rep.named))
	for k := range rep.named {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := rep.named[k]
		fmt.Fprintf(w, "  = %-28s %14s %s\n", k, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit)
	}
}
