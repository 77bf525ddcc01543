package main

import (
	"context"
	"fmt"
	"time"

	mtsim "repro"
	"repro/internal/serve"
)

// sweepSpec sizes the serve-sweep workload.
type sweepSpec struct {
	apps  []string
	algs  []string
	procs []int
	scale float64
	// warmEvery picks every warmEvery-th sweep cell for the warm phase.
	warmEvery int
	// warmEach is how many warm requests the one closed-loop client
	// sends per cycle, after an untimed first pass over the warm cells.
	// One client keeps the request chain (client, coordinator, worker)
	// serial, so the latency is not a measure of three processes queueing
	// for the host's few cores.
	warmEach int
	// warmChunk is how many consecutive warm samples make one latency
	// window: the warm figures are medians over all windows of the run,
	// so a few slow seconds on a shared host move one window, not the
	// figure. A window of 100 puts the tail at p90: on a host of a few
	// shared cores, p95 and p99 of a sub-millisecond three-process chain
	// are set by the stalls other tenants cause, not by the daemons.
	warmChunk int
}

// defaultSweep is cheap cells at reduced scale: every static algorithm at
// every processor count for four apps whose cells take milliseconds, so
// the job plane, leases and HTTP carry a visible share of the time.
func defaultSweep() sweepSpec {
	return sweepSpec{
		apps:      []string{"Barnes-Hut", "Topopt", "MP3D", "Grav"},
		algs:      mtsim.Algorithms(),
		procs:     []int{2, 4, 8, 16},
		scale:     0.25,
		warmEvery: 4,
		warmEach:  2000,
		warmChunk: 100,
	}
}

func (s sweepSpec) cells() []cell {
	var out []cell
	for _, app := range s.apps {
		for _, alg := range s.algs {
			for _, p := range s.procs {
				out = append(out, cell{app, alg, p, false})
			}
		}
	}
	return out
}

// sweepCycle is the measurement of one serve-sweep cycle.
type sweepCycle struct {
	traced    bool
	setup     time.Duration // mtserve, then mtcoord with its workers
	serve     time.Duration // submit until the terminal event, mtserve
	coord     time.Duration // the same through mtcoord
	warm      []time.Duration
	rss       float64
	spans     []span
	telemetry daemonTelemetry
	httpMs    []float64
}

// runSweep measures cycles of the sweep through both daemons, each cycle
// on fresh processes, until the run's time is used.
func runSweep(ctx context.Context, b *bench, spec sweepSpec) (*report, error) {
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

	var cycles []*sweepCycle
	deadline := time.Now().Add(b.seconds)
	for i := 0; len(cycles) < 2 || time.Now().Before(deadline); i++ {
		cy, err := sweepOnce(ctx, b, spec, gt, rep, i, b.trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, cy)
	}
	rep.notes["runs"] = len(cycles)
	rep.notes["scale"] = spec.scale

	if b.trace {
		sweepLayers(rep, gt, cycles)
		var all []span
		all = append(all, gt.lib.t.snapshot()...)
		for _, cy := range cycles {
			all = append(all, cy.spans...)
		}
		return rep, (&tracer{spans: all}).write(spanPath(b, "serve-sweep"))
	}
	var setup, serveRate, refsRate, coordRate, rss []float64
	var warm [][]time.Duration
	var warmMid []float64
	for _, cy := range cycles {
		setup = append(setup, cy.setup.Seconds())
		serveRate = append(serveRate, float64(len(cells))/cy.serve.Seconds())
		refsRate = append(refsRate, float64(refs)/cy.serve.Seconds())
		coordRate = append(coordRate, float64(len(cells))/cy.coord.Seconds())
		rss = append(rss, cy.rss)
		warm = append(warm, chunks(cy.warm, spec.warmChunk)...)
		warmMid = append(warmMid, median(msSamples(cy.warm)))
	}
	p50, tl, err := latency(warm)
	if err != nil {
		return nil, err
	}
	rep.notes["serve_cells_per_s_by_cycle"] = serveRate
	rep.notes["coord_cells_per_s_by_cycle"] = coordRate
	rep.notes["coord_warm_p50_ms_by_cycle"] = warmMid
	rep.set("setup_s", "setup_s", median(setup))
	rep.set("refs_per_s", "serve_refs_per_s", median(refsRate))
	rep.set("cold_cells_per_s", "serve_cells_per_s", median(serveRate))
	rep.set("second_path_cells_per_s", "coord_cells_per_s", median(coordRate))
	rep.set("warm_p50_ms", "coord_warm_p50_ms", p50)
	rep.set("warm_tail_ms", fmt.Sprintf("coord_warm_p%.4g_ms", tl.Level), tl.Value)
	rep.set("peak_rss_mb", "peak_rss_mb", median(rss))
	rep.set("success_rate", "", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	rep.named["error_rate"] = metricValue{Value: float64(rep.failed) / float64(rep.attempted), Unit: "ratio"}
	rep.notes["warm_tail"] = tl
	return rep, nil
}

// runJob submits the sweep, waits for its terminal event on the job's
// event stream, and checks every cell of the finished job. It returns the
// time from submission to the terminal event and the job's trace ID.
func runJob(ctx context.Context, c *apiClient, req *serve.SweepRequest, gt *truth, rep *report, where string, corrupt bool) (time.Duration, string, error) {
	t0 := time.Now()
	acc, err := c.Sweep(req)
	if err != nil {
		return 0, "", fmt.Errorf("%s: submitting the sweep: %w", where, err)
	}
	status, err := c.waitJob(ctx, acc.Job)
	elapsed := time.Since(t0)
	if err != nil {
		return 0, "", fmt.Errorf("%s: %w", where, err)
	}
	st, err := c.Job(acc.Job)
	if err != nil {
		return 0, "", fmt.Errorf("%s: fetching the job: %w", where, err)
	}
	rep.attempted += int64(req.Cells())
	if status != serve.StatusDone || len(st.Results) != req.Cells() {
		rep.failed += int64(req.Cells() - len(st.Results))
		rep.diverge("%s: job ended %s with %d of %d cells: %s", where, status, len(st.Results), req.Cells(), st.Error)
	}
	for k, r := range st.Results {
		if corrupt && k == 0 {
			r.Result.ExecTime++
		}
		gt.check(rep, where, cell{r.App, r.Algorithm, r.Procs, false}, r.Result)
	}
	return elapsed, acc.Trace, nil
}

// sweepOnce runs one cycle: the sweep through a fresh mtserve with two
// workers, then through a fresh mtcoord with two one-worker mtserves, then
// warm /v1/simulate requests through the coordinator.
func sweepOnce(ctx context.Context, b *bench, spec sweepSpec, gt *truth, rep *report, i int, traced bool) (*sweepCycle, error) {
	params := &serve.Params{Scale: spec.scale, Seed: b.seed}
	req := &serve.SweepRequest{Params: params, Apps: spec.apps, Algorithms: spec.algs, Procs: spec.procs}
	cy := &sweepCycle{traced: traced}
	var t *tracer
	if traced {
		t = &tracer{}
	}

	single, err := startServe(ctx, b, fmt.Sprintf("sweep%d", i), []string{"-workers", "2"}, traced)
	if err != nil {
		return nil, err
	}
	cy.setup = single.setup()
	cs := newClient(single.url)
	var trace string
	cy.serve, trace, err = runJob(ctx, cs, req, gt, rep, "serve-sweep mtserve", b.corrupt && i == 0)
	if err != nil {
		return nil, err
	}
	rssSingle, err := single.peakRSS()
	if err != nil {
		return nil, err
	}
	if traced {
		if _, err := fetchSpans(cs, t, []string{trace}); err != nil {
			return nil, err
		}
		if err := cy.telemetry.collect(single); err != nil {
			return nil, err
		}
	}
	cs.http.CloseIdleConnections()
	single.stop()

	coord, workers, err := startCluster(ctx, b, fmt.Sprintf("cluster%d", i), 2, traced)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, w := range workers {
			w.stop()
		}
		coord.stop()
	}()
	cy.setup += coord.setup()
	cc := newClient(coord.url)
	defer cc.http.CloseIdleConnections()
	cy.coord, trace, err = runJob(ctx, cc, req, gt, rep, "serve-sweep mtcoord", false)
	if err != nil {
		return nil, err
	}

	var warmCells []cell
	for k, c := range spec.cells() {
		if k%spec.warmEvery == 0 {
			warmCells = append(warmCells, c)
		}
	}
	for _, c := range warmCells {
		resp, err := cc.Simulate(&serve.SimulateRequest{Params: params, App: c.app, Algorithm: c.alg, Procs: c.procs})
		rep.opResult(err)
		if err == nil {
			gt.check(rep, "serve-sweep warm-up", c, resp.Result)
		}
	}
	lat, warmTraces := warmLoop(cc, gt, rep, "serve-sweep warm", warmCells, params, 1, spec.warmEach)
	cy.warm = lat

	rssCluster, err := coord.peakRSS()
	if err != nil {
		return nil, err
	}
	for _, w := range workers {
		r, err := w.peakRSS()
		if err != nil {
			return nil, err
		}
		rssCluster += r
	}
	cy.rss = max(rssSingle, rssCluster)
	if traced {
		if _, err := fetchSpans(cc, t, []string{trace}); err != nil {
			return nil, err
		}
		roots, err := fetchSpans(cc, t, warmTraces)
		if err != nil {
			return nil, err
		}
		for k, id := range warmTraces {
			cy.httpMs = append(cy.httpMs, ms(lat[k]-roots[id]))
		}
		// The coordinator's counters are named coordinator_*, so they sit
		// beside the workers' serve_* counters without mixing.
		for _, d := range append([]*daemon{coord}, workers...) {
			if err := cy.telemetry.collect(d); err != nil {
				return nil, err
			}
		}
		cy.spans = t.snapshot()
	}
	return cy, nil
}

// sweepLayers fills the per-layer metrics of a traced serve-sweep run.
func sweepLayers(rep *report, gt *truth, cycles []*sweepCycle) {
	zeroLayers(rep)
	libraryLayers(rep, gt)
	var spans [][]span
	var tel []daemonTelemetry
	var httpMs, plain, traced []float64
	var leases, cellsPerLease, steals, requeues, harvest []float64
	for _, cy := range cycles {
		if !cy.traced {
			plain = append(plain, (cy.serve + cy.coord).Seconds())
			continue
		}
		traced = append(traced, (cy.serve + cy.coord).Seconds())
		spans = append(spans, cy.spans)
		tel = append(tel, cy.telemetry)
		httpMs = append(httpMs, cy.httpMs...)
		m := cy.telemetry.metrics
		leases = append(leases, m["coordinator_leases_granted_total"])
		if l := m["coordinator_leases_granted_total"]; l > 0 {
			cellsPerLease = append(cellsPerLease, m["coordinator_cells_total"]/l)
		}
		steals = append(steals, m["coordinator_steals_total"])
		requeues = append(requeues, m["coordinator_requeues_total"])
		harvest = append(harvest, histP50Ms(m, "coordinator_lease_harvest_us"))
	}
	serviceLayers(rep, spans, tel, httpMs)
	rep.set("cluster.leases", "", median(leases))
	rep.set("cluster.cells_per_lease", "", median(cellsPerLease))
	rep.set("cluster.steals", "", median(steals))
	rep.set("cluster.requeues", "", median(requeues))
	rep.set("cluster.lease_harvest_p50_ms", "", median(harvest))
	rep.set("obs.trace_overhead_pct", "", 100*(median(traced)/median(plain)-1))
	rep.notes["traced_cycles"] = len(traced)
	rep.notes["untraced_cycles"] = len(plain)
}
