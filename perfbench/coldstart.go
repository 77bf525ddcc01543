package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	mtsim "repro"
	"repro/internal/serve"
)

// coldSpec sizes the cold-start workload.
type coldSpec struct {
	apps  []string
	algs  []string
	procs int
	scale float64
	// warmEach is how many warm requests each of nproc closed-loop
	// clients sends per cycle, after an untimed first pass over the cells.
	warmEach int
}

// defaultCold asks mtserve for SHARE-REFS and LOAD-BAL at 8 processors
// over all fourteen apps at the library's default scale: cells whose cost
// is mostly preparation (build, analysis, sharing, placement).
func defaultCold() coldSpec {
	var apps []string
	for _, a := range mtsim.Applications() {
		apps = append(apps, a.Name)
	}
	return coldSpec{apps: apps, algs: []string{"SHARE-REFS", "LOAD-BAL"}, procs: 8, scale: mtsim.DefaultParams().Scale, warmEach: 500}
}

func (s coldSpec) cells() []cell {
	var out []cell
	for _, app := range s.apps {
		for _, alg := range s.algs {
			out = append(out, cell{app, alg, s.procs, false})
		}
	}
	return out
}

// coldCycle is the measurement of one cold-start cycle.
type coldCycle struct {
	traced       bool
	setup        time.Duration // first exec until /healthz
	cold         time.Duration // first request until last response
	restart      time.Duration // restart exec until last response
	restartReady time.Duration // restart exec until /healthz
	warm         []time.Duration
	rss          float64
	spans        []span
	telemetry    daemonTelemetry
	httpMs       []float64
}

// runColdStart measures cycles of cold, restart and warm phases, each on
// fresh daemons and a fresh store directory, until the run's time is used.
func runColdStart(ctx context.Context, b *bench, spec coldSpec) (*report, error) {
	rep := newReport()
	params := mtsim.Params{Scale: spec.scale, Seed: b.seed}
	cells := spec.cells()
	gt, err := groundTruth(cells, params, b.trace)
	if err != nil {
		return nil, err
	}
	var refs uint64
	for _, c := range cells {
		refs += gt.refs[c]
	}

	var cycles []*coldCycle
	deadline := time.Now().Add(b.seconds)
	// A traced run alternates untraced and traced cycles, so the trace's
	// overhead is measured within the run.
	for i := 0; len(cycles) < 2 || time.Now().Before(deadline); i++ {
		cy, err := coldStartCycle(ctx, b, spec, gt, rep, i, b.trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, cy)
	}
	rep.notes["runs"] = len(cycles)
	rep.notes["scale"] = spec.scale

	if b.trace {
		coldLayers(rep, gt, cycles)
		var all []span
		all = append(all, gt.lib.t.snapshot()...)
		for _, cy := range cycles {
			all = append(all, cy.spans...)
		}
		return rep, (&tracer{spans: all}).write(spanPath(b, "cold-start"))
	}
	var setup, coldRate, refsRate, restartRate, rss []float64
	var warm [][]time.Duration
	for _, cy := range cycles {
		setup = append(setup, cy.setup.Seconds())
		coldRate = append(coldRate, float64(len(cells))/cy.cold.Seconds())
		refsRate = append(refsRate, float64(refs)/cy.cold.Seconds())
		restartRate = append(restartRate, float64(len(cells))/cy.restart.Seconds())
		rss = append(rss, cy.rss)
		warm = append(warm, cy.warm)
	}
	p50, tl, err := latency(warm)
	if err != nil {
		return nil, err
	}
	rep.notes["cold_cells_per_s_by_cycle"] = coldRate
	rep.notes["restart_cells_per_s_by_cycle"] = restartRate
	rep.set("setup_s", "setup_s", median(setup))
	rep.set("refs_per_s", "cold_refs_per_s", median(refsRate))
	rep.set("cold_cells_per_s", "cold_cells_per_s", median(coldRate))
	rep.set("second_path_cells_per_s", "restart_cells_per_s", median(restartRate))
	rep.set("warm_p50_ms", "warm_p50_ms", p50)
	rep.set("warm_tail_ms", fmt.Sprintf("warm_p%.4g_ms", tl.Level), tl.Value)
	rep.set("peak_rss_mb", "peak_rss_mb", median(rss))
	rep.set("success_rate", "", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	rep.named["error_rate"] = metricValue{Value: float64(rep.failed) / float64(rep.attempted), Unit: "ratio"}
	rep.notes["warm_tail"] = tl
	return rep, nil
}

// coldStartCycle runs one cycle: a fresh mtserve over an empty store
// answers every cell once (cold), is killed with SIGKILL, restarts over
// the same store and answers every cell again (restart), then two
// closed-loop clients send memory-cache hits (warm). One client in the
// first two phases keeps the order of cells, and so the engine guard's
// every-16th cross-check, the same in every cycle.
func coldStartCycle(ctx context.Context, b *bench, spec coldSpec, gt *truth, rep *report, i int, traced bool) (*coldCycle, error) {
	cells := spec.cells()
	storeDir := filepath.Join(b.work, fmt.Sprintf("store-%d", i))
	defer os.RemoveAll(storeDir)
	params := &serve.Params{Scale: spec.scale, Seed: b.seed}
	cy := &coldCycle{traced: traced}
	var t *tracer
	if traced {
		t = &tracer{}
	}

	// corrupt alters the first served result of the run, which the
	// output check must reject.
	corrupt := b.corrupt && i == 0
	// simulateAll sends every cell once, in order, and returns the time
	// of the last response and the trace IDs.
	simulateAll := func(c *apiClient, phase string) (time.Time, []string) {
		var traces []string
		for _, k := range cells {
			t0 := time.Now()
			resp, err := c.Simulate(&serve.SimulateRequest{Params: params, App: k.app, Algorithm: k.alg, Procs: k.procs})
			rep.opResult(err)
			if err != nil {
				continue
			}
			t.add("", "", phase+" "+k.app+" "+k.alg, t0, time.Now())
			traces = append(traces, resp.Trace)
			if corrupt {
				resp.Result.ExecTime++
				corrupt = false
			}
			gt.check(rep, "cold-start "+phase, k, resp.Result)
		}
		return time.Now(), traces
	}

	name := fmt.Sprintf("cold%d", i)
	d1, err := startServe(ctx, b, name, []string{"-store-dir", storeDir}, traced)
	if err != nil {
		return nil, err
	}
	cy.setup = d1.setup()
	c1 := newClient(d1.url)
	coldStart := time.Now()
	coldEnd, coldTraces := simulateAll(c1, "cold")
	cy.cold = coldEnd.Sub(coldStart)
	if traced {
		if _, err := fetchSpans(c1, t, coldTraces); err != nil {
			return nil, err
		}
		if err := cy.telemetry.collect(d1); err != nil {
			return nil, err
		}
	}
	rss1, err := d1.peakRSS()
	if err != nil {
		return nil, err
	}
	// Let the store's write-behind flusher hand the last results to the
	// kernel; SIGKILL then loses nothing a restart should find.
	time.Sleep(100 * time.Millisecond)
	d1.kill9()
	c1.http.CloseIdleConnections()

	d2, err := startServe(ctx, b, name+"-restart", []string{"-store-dir", storeDir}, traced)
	if err != nil {
		return nil, err
	}
	defer d2.stop()
	cy.restartReady = d2.setup()
	c2 := newClient(d2.url)
	defer c2.http.CloseIdleConnections()
	restartEnd, restartTraces := simulateAll(c2, "restart")
	cy.restart = restartEnd.Sub(d2.started)

	// Warm: the restart promoted every cell into the memory cache; an
	// untimed first pass makes sure, then the clients are timed.
	simulateAll(c2, "warm-up")
	lat, warmTraces := warmLoop(c2, gt, rep, "cold-start warm", cells, params, runtime.NumCPU(), spec.warmEach)
	cy.warm = lat
	rss2, err := d2.peakRSS()
	if err != nil {
		return nil, err
	}
	cy.rss = max(rss1, rss2)
	if traced {
		if _, err := fetchSpans(c2, t, restartTraces); err != nil {
			return nil, err
		}
		roots, err := fetchSpans(c2, t, warmTraces)
		if err != nil {
			return nil, err
		}
		for k, id := range warmTraces {
			cy.httpMs = append(cy.httpMs, ms(lat[k]-roots[id]))
		}
		if err := cy.telemetry.collect(d2); err != nil {
			return nil, err
		}
		cy.spans = t.snapshot()
	}
	return cy, nil
}

// coldLayers fills the per-layer metrics of a traced cold-start run.
func coldLayers(rep *report, gt *truth, cycles []*coldCycle) {
	zeroLayers(rep)
	libraryLayers(rep, gt)
	var spans [][]span
	var tel []daemonTelemetry
	var httpMs, ready, storeHit, plain, traced []float64
	for _, cy := range cycles {
		if !cy.traced {
			plain = append(plain, (cy.cold + cy.restart).Seconds())
			continue
		}
		traced = append(traced, (cy.cold + cy.restart).Seconds())
		spans = append(spans, cy.spans)
		tel = append(tel, cy.telemetry)
		httpMs = append(httpMs, cy.httpMs...)
		ready = append(ready, ms(cy.restartReady))
		storeHit = append(storeHit, cy.telemetry.storeHitRate)
	}
	serviceLayers(rep, spans, tel, httpMs)
	rep.set("store.restart_ready_ms", "", median(ready))
	rep.set("store.hit_rate", "", median(storeHit))
	rep.set("obs.trace_overhead_pct", "", 100*(median(traced)/median(plain)-1))
	rep.notes["traced_cycles"] = len(traced)
	rep.notes["untraced_cycles"] = len(plain)
}
