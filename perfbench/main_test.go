package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	mtsim "repro"
)

// binDir holds mtserve and mtcoord built from the repository for the
// smoke tests; empty when the build failed (the tests then fail).
var binDir string

func TestMain(m *testing.M) {
	// probeSetup re-executes the running binary as its ready probe.
	if len(os.Args) == 2 && os.Args[1] == "-ready-probe" {
		os.Exit(readyProbe(os.Stdout))
	}
	dir, err := os.MkdirTemp("", "perfbench-bin")
	if err == nil {
		for _, cmd := range []string{"mtserve", "mtcoord"} {
			build := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd)
			build.Dir = ".."
			build.Stderr = os.Stderr
			if err := build.Run(); err != nil {
				dir = ""
				break
			}
		}
	}
	binDir = dir
	code := m.Run()
	if dir != "" {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: the rule must sort
	}
	tl, err := tailPercentile(xs)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Level != 99 || tl.Value != 990 || tl.Samples != 1000 {
		t.Errorf("1000 samples: got %+v, want p99 = 990 over 1000 samples", tl)
	}
	beyond := 0
	for _, x := range xs {
		if x > tl.Value {
			beyond++
		}
	}
	if beyond != minTailSamples {
		t.Errorf("%d samples beyond the tail, want %d", beyond, minTailSamples)
	}

	tl, err = tailPercentile(xs[:224])
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 * 214.0 / 224; tl.Level != want || tl.Samples != 224 {
		t.Errorf("224 samples: level %v, want %v", tl.Level, want)
	}
	if _, err := tailPercentile(xs[:minTailSamples]); err == nil {
		t.Error("10 samples: want an error, no percentile has 10 samples beyond it")
	}
}

func TestLatencyTakesTailPerCycle(t *testing.T) {
	cycle := func(slow time.Duration) []time.Duration {
		var c []time.Duration
		for i := 0; i < 100; i++ {
			c = append(c, time.Millisecond)
		}
		for i := 0; i < 11; i++ {
			c = append(c, slow)
		}
		return c
	}
	p50, tl, err := latency([][]time.Duration{cycle(2 * time.Millisecond), cycle(4 * time.Millisecond), cycle(8 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 1 || tl.Value != 4 || tl.Samples != 333 {
		t.Errorf("got p50 %v tail %+v, want 1 ms and the median cycle's 4 ms over 333 samples", p50, tl)
	}
}

func TestChunks(t *testing.T) {
	ds := make([]time.Duration, 25)
	for i := range ds {
		ds[i] = time.Duration(i)
	}
	var sizes []int
	for _, c := range chunks(ds, 10) {
		sizes = append(sizes, len(c))
	}
	if len(sizes) != 2 || sizes[0] != 10 || sizes[1] != 15 {
		t.Errorf("chunks of 25 by 10: sizes %v, want [10 15] (the remainder joins the last)", sizes)
	}
	if got := chunks(ds[:7], 10); len(got) != 1 || len(got[0]) != 7 {
		t.Errorf("7 samples by 10: got %d chunks, want the 7 samples in one", len(got))
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: "cell", Layer: "serve.resolve", Start: at(0), End: at(100)},
		{ID: "a", Parent: "cell", Layer: "serve.cache_lookup", Start: at(10), End: at(20)},
		{ID: "b", Parent: "cell", Layer: "serve.engine", Start: at(15), End: at(60)},
		{ID: "c", Parent: "cell", Start: at(90), End: at(120)}, // clipped to the parent
	}
	st := selfTimes(spans)
	if got := st["serve.resolve"].self; got != 40*time.Millisecond {
		t.Errorf("cell self time %v, want 40ms (100 - union of [10,60] and [90,100])", got)
	}
	if got := st["serve.engine"]; got.self != 45*time.Millisecond || got.count != 1 {
		t.Errorf("engine %+v, want 45ms once", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
	for w := range workloads {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q does not match %s", w, nameRE)
		}
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []json.RawMessage `json:"workloads"`
	EndToEnd   []json.RawMessage `json:"end_to_end"`
	PerLayer   []json.RawMessage `json:"per_layer"`
}

// strictObject decodes raw into a map and checks it has exactly keys.
func strictObject(t *testing.T, raw []byte, keys ...string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range m {
		got = append(got, k)
	}
	slices.Sort(got)
	want := slices.Clone(keys)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("keys %v, want exactly %v", got, want)
	}
	return m
}

func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	strictObject(t, raw, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.Command, []string{"sh", "perfbench/run.sh"}) || !slices.Equal(m.Paths, []string{"perfbench"}) {
		t.Errorf("command %v paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", m.RunSeconds)
	}

	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the benchmark", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		o := strictObject(t, w, "name", "why")
		name, _ := o["name"].(string)
		why, _ := o["why"].(string)
		if _, ok := workloads[name]; !ok {
			t.Errorf("workload %q is not implemented", name)
		}
		if why == "" || len(why) > 200 || strings.ContainsAny(why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", name)
		}
	}

	checkMetrics := func(kind string, raws []json.RawMessage, defs []metricDef, keys ...string) []map[string]any {
		if len(raws) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(raws), len(defs))
		}
		var out []map[string]any
		for i, r := range raws {
			o := strictObject(t, r, keys...)
			if o["name"] != defs[i].name || o["unit"] != defs[i].unit {
				t.Errorf("%s %d: %v %v, benchmark prints %s %s", kind, i, o["name"], o["unit"], defs[i].name, defs[i].unit)
			}
			if b := o["better"]; b != "higher" && b != "lower" {
				t.Errorf("%s %v: better %v", kind, o["name"], b)
			}
			out = append(out, o)
		}
		return out
	}
	setup := false
	for _, o := range checkMetrics("end_to_end", m.EndToEnd, endToEnd, "name", "unit", "better", "bound") {
		b, _ := o["bound"].(float64)
		if b <= 0 || b > 0.25 {
			t.Errorf("%v: bound %v out of (0, 0.25]", o["name"], o["bound"])
		}
		if o["name"] == "setup_s" {
			setup = o["unit"] == "s" && o["better"] == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	checkMetrics("per_layer", m.PerLayer, perLayer, "name", "unit", "better")
}

func TestLayersJSON(t *testing.T) {
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd map[string]map[string]string `json:"end_to_end"`
		Layers   []struct {
			Metrics []string `json:"metrics"`
		} `json:"layers"`
		Legacy map[string]string `json:"legacy"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		per := doc.EndToEnd[d.name]
		for w := range workloads {
			if per[w] == "" && per["all"] == "" {
				t.Errorf("layers.json does not say what %s means on %s", d.name, w)
			}
		}
	}
	mapped := map[string]int{}
	for _, l := range doc.Layers {
		for _, m := range l.Metrics {
			mapped[m]++
		}
	}
	for _, d := range perLayer {
		if mapped[d.name] != 1 {
			t.Errorf("per-layer metric %s is in %d layers of layers.json, want 1", d.name, mapped[d.name])
		}
	}
	legacy, err := filepath.Glob("../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range legacy {
		if doc.Legacy[filepath.Base(f)] == "" {
			t.Errorf("layers.json does not label %s", filepath.Base(f))
		}
	}
}

// TestRandomSeedRule checks that the benchmark's RANDOM cells are the
// suite's (and so mtserve's) RANDOM cells.
func TestRandomSeedRule(t *testing.T) {
	params := mtsim.Params{Scale: 0.05, Seed: 7}
	suite := mtsim.NewSuite(mtsim.Options{Params: params, ProcCounts: []int{2, 4}, RandomSeed: mtsim.DefaultOptions().RandomSeed})
	tr, err := mtsim.BuildApp("MP3D", params)
	if err != nil {
		t.Fatal(err)
	}
	data := mtsim.Analyze(tr).Sharing()
	for _, procs := range []int{2, 4, 8} {
		want, err := suite.Place("MP3D", "RANDOM", procs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mtsim.PlaceData(data, "RANDOM", procs, suiteRandomSeed("MP3D", procs))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got.Clusters, want.Clusters, slices.Equal[[]int]) {
			t.Errorf("%d procs: RANDOM placement %v, suite's %v", procs, got.Clusters, want.Clusters)
		}
	}
}

// smoke runs one workload at tiny size and returns its report, checked
// to carry exactly the metrics of its mode.
func smoke(t *testing.T, traced, corrupt bool, run func(context.Context, *bench) (*report, error)) *report {
	t.Helper()
	if binDir == "" {
		t.Fatal("mtserve and mtcoord did not build")
	}
	b := &bench{seed: 3, seconds: time.Nanosecond, trace: traced, bin: binDir, work: t.TempDir(), procs: &procSet{}, corrupt: corrupt}
	defer b.procs.stopAll()
	rep, err := run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res, err := result(rep, defs)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt {
		if res.Correct {
			t.Fatal("a corrupted result passed the output check")
		}
		return rep
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d divergences %v", res.Correct, res.Failed, rep.divergences)
	}
	if !traced {
		for _, d := range endToEnd {
			if rep.metrics[d.name] <= 0 {
				t.Errorf("%s = %v, end-to-end metrics are never 0", d.name, rep.metrics[d.name])
			}
		}
	}
	return rep
}

func tinyGrid() gridSpec {
	return gridSpec{apps: []string{"MP3D"}, scale: 0.05, procs: []int{2, 4}, xcheck: []cell{{"MP3D", "SHARE-REFS", 4, false}}}
}

func tinyCold() coldSpec {
	return coldSpec{apps: []string{"Barnes-Hut", "MP3D"}, algs: []string{"SHARE-REFS", "LOAD-BAL"}, procs: 4, scale: 0.05, warmEach: 10}
}

func tinySweep() sweepSpec {
	return sweepSpec{apps: []string{"MP3D", "Grav"}, algs: []string{"LOAD-BAL", "RANDOM"}, procs: []int{2, 4}, scale: 0.05, warmEvery: 2, warmEach: 20, warmChunk: 20}
}

func TestSmokePaperGrid(t *testing.T) {
	run := func(ctx context.Context, b *bench) (*report, error) { return runGrid(ctx, b, tinyGrid()) }
	smoke(t, false, false, run)
	rep := smoke(t, true, false, run)
	for _, m := range []string{"workload.build_ms", "analysis.sharing_ms", "placement.calls", "sim.run_ms", "sim.dynamic_run_ms", "runtime.alloc_mb"} {
		if rep.metrics[m] <= 0 {
			t.Errorf("traced paper-grid: %s = %v", m, rep.metrics[m])
		}
	}
	smoke(t, false, true, run)
}

func TestSmokeColdStart(t *testing.T) {
	run := func(ctx context.Context, b *bench) (*report, error) { return runColdStart(ctx, b, tinyCold()) }
	smoke(t, false, false, run)
	rep := smoke(t, true, false, run)
	for _, m := range []string{"analysis.sharing_ms", "serve.resolve_ms", "serve.engine_ms", "serve.http_ms", "serve.sim_runs", "store.hit_rate", "store.restart_ready_ms", "runtime.gc_cycles"} {
		if rep.metrics[m] <= 0 {
			t.Errorf("traced cold-start: %s = %v", m, rep.metrics[m])
		}
	}
	smoke(t, false, true, run)
}

func TestSmokeServeSweep(t *testing.T) {
	run := func(ctx context.Context, b *bench) (*report, error) { return runSweep(ctx, b, tinySweep()) }
	smoke(t, false, false, run)
	rep := smoke(t, true, false, run)
	for _, m := range []string{"placement.place_ms", "serve.engine_ms", "serve.http_ms", "cluster.leases", "cluster.cells_per_lease", "runtime.alloc_mb"} {
		if rep.metrics[m] <= 0 {
			t.Errorf("traced serve-sweep: %s = %v", m, rep.metrics[m])
		}
	}
	smoke(t, false, true, run)
}

// TestRunRefusesBareDirectory checks the launcher fails, without a
// result line, where only the benchmark's own files exist.
func TestRunRefusesBareDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "perfbench", "run.sh"), script, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("sh", "perfbench/run.sh", "--workload", "paper-grid", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("run.sh succeeded in a directory without the repository")
	}
	if strings.Contains(string(out), `"correct"`) {
		t.Errorf("run.sh printed a result: %s", out)
	}
}
