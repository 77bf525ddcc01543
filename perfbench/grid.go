package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	mtsim "repro"
)

// Placement algorithm groups of the paper (mirroring internal/core, which
// the benchmark does not import).
var (
	// sharingAlgorithms are the six sharing-based algorithms; with
	// LOAD-BAL they are Table 5's infinite-cache columns.
	sharingAlgorithms = []string{"SHARE-REFS", "SHARE-ADDR", "MIN-PRIV", "MIN-INVS", "MAX-WRITES", "MIN-SHARE"}
	// table5Apps are the applications of Table 5.
	table5Apps = map[string]bool{"Water": true, "LocusRoute": true, "Pverify": true, "Grav": true, "FFT": true, "Health": true}
)

// dynamicContexts is the hardware contexts per processor of the dynamic
// self-scheduling baselines (the experiments' DynamicComparison setting).
const dynamicContexts = 2

// gridSpec sizes the paper-grid workload.
type gridSpec struct {
	apps  []string
	scale float64
	procs []int
	// xcheck lists the cells re-run on the reference engine (through an
	// mtserve) after the timed passes, so seeds without a stored digest
	// are still checked.
	xcheck []cell
}

// defaultGrid is the engine-heavy part of the paper at full scale: the
// apps whose grids spend most of their time in the engine rather than in
// placement.
func defaultGrid() gridSpec {
	apps := []string{"LocusRoute", "Water", "MP3D", "FFT"}
	var xc []cell
	for _, a := range apps {
		xc = append(xc, cell{a, "SHARE-REFS", 4, false}, cell{a, "LOAD-BAL", 16, false})
		if table5Apps[a] {
			xc = append(xc, cell{a, "MIN-SHARE", 8, true})
		}
	}
	return gridSpec{apps: apps, scale: 1, procs: []int{2, 4, 8, 16}, xcheck: xc}
}

// gridPass is the measurement of one pass over the grid.
type gridPass struct {
	total, finite, second time.Duration
	finiteCells           int
	secondCells           int
	simLat                []time.Duration // Simulate latency per finite cell
	results               []*mtsim.Result
	cells                 []cell // cell of each result
	rss                   float64
	lib                   *lib
	mem                   runtime.MemStats // deltas over a traced pass
}

// runGrid measures passes over the grid until the run's time is used,
// then checks every pass's results.
func runGrid(ctx context.Context, b *bench, spec gridSpec) (*report, error) {
	rep := newReport()
	params := mtsim.Params{Scale: spec.scale, Seed: b.seed}
	setups, err := probeSetup(ctx, 15)
	if err != nil {
		return nil, err
	}

	var all, passes []*gridPass // every pass; the passes measured
	var untracedTimes []time.Duration
	deadline := time.Now().Add(b.seconds)
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A traced run alternates untraced and traced passes, so the
		// trace's overhead is measured within the run.
		traced := b.trace && i%2 == 1
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		p, err := gridRun(spec, params, traced)
		rep.opResult(err)
		if err != nil {
			return nil, err
		}
		if p.rss, err = peakRSSMB(0); err != nil {
			return nil, err
		}
		all = append(all, p)
		if traced {
			passes = append(passes, p)
		} else {
			untracedTimes = append(untracedTimes, p.total)
			if !b.trace {
				passes = append(passes, p)
			}
		}
		if time.Now().After(deadline) && len(passes) > 0 && len(untracedTimes) > 0 {
			break
		}
	}
	if err := checkGrid(ctx, b, spec, params, all, rep); err != nil {
		return nil, err
	}
	rep.notes["runs"] = len(passes)
	rep.notes["scale"] = spec.scale
	rep.notes["setup_probes_s"] = setups

	if b.trace {
		gridLayers(rep, passes, untracedTimes)
		var spans []span
		for _, p := range passes {
			spans = append(spans, p.lib.t.snapshot()...)
		}
		return rep, (&tracer{spans: spans}).write(spanPath(b, "paper-grid"))
	}
	var refsRate, coldRate, secondRate, rss []float64
	var lat [][]time.Duration
	for _, p := range passes {
		rss = append(rss, p.rss)
		refsRate = append(refsRate, float64(p.lib.simRefs)/p.total.Seconds())
		coldRate = append(coldRate, float64(p.finiteCells)/p.finite.Seconds())
		secondRate = append(secondRate, float64(p.secondCells)/p.second.Seconds())
		lat = append(lat, p.simLat)
	}
	p50, tl, err := latency(lat)
	if err != nil {
		return nil, err
	}
	rep.notes["refs_per_s_by_pass"] = refsRate
	rep.notes["grid_cells_per_s_by_pass"] = coldRate
	rep.notes["second_path_cells_per_s_by_pass"] = secondRate
	rep.set("setup_s", "", median(setups))
	rep.set("refs_per_s", "refs_per_s", median(refsRate))
	rep.set("cold_cells_per_s", "grid_cells_per_s", median(coldRate))
	rep.set("second_path_cells_per_s", "infinite_and_dynamic_cells_per_s", median(secondRate))
	rep.set("warm_p50_ms", "simulate_p50_ms", p50)
	rep.set("warm_tail_ms", fmt.Sprintf("simulate_p%.4g_ms", tl.Level), tl.Value)
	rep.set("peak_rss_mb", "", median(rss))
	rep.set("success_rate", "", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	rep.notes["warm_tail"] = tl
	return rep, nil
}

// gridRun runs one pass: per app build, analyze and sharing, then every
// static algorithm at every processor count with the app's finite cache
// (Figures 2-5), then Table 5's infinite-cache cells and the FIFO and
// longest-first dynamic baselines. Everything is built afresh: a user
// regenerating figures pays the preparation too.
func gridRun(spec gridSpec, params mtsim.Params, traced bool) (*gridPass, error) {
	l := newLib(params, traced)
	p := &gridPass{lib: l}
	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	type prepared struct {
		tr   *mtsim.Trace
		data *mtsim.SharingData
	}
	prep := make([]prepared, len(spec.apps))
	add := func(c cell, res *mtsim.Result) {
		p.results = append(p.results, res)
		p.cells = append(p.cells, c)
	}

	// Figures 2-5: the finite-cache grid, preparation included.
	start := time.Now()
	for i, app := range spec.apps {
		tr, data, err := l.prepare(app)
		if err != nil {
			return nil, err
		}
		prep[i] = prepared{tr, data}
		for _, alg := range mtsim.Algorithms() {
			for _, procs := range spec.procs {
				c := cell{app, alg, procs, false}
				res, lat, err := l.simulate(tr, data, c)
				if err != nil {
					return nil, err
				}
				add(c, res)
				p.simLat = append(p.simLat, lat)
				p.finiteCells++
			}
		}
	}
	p.finite = time.Since(start)

	// Table 5's infinite-cache cells and the dynamic baselines reuse the
	// pass's prepared traces and sharing data.
	secondStart := time.Now()
	for i, app := range spec.apps {
		tr, data := prep[i].tr, prep[i].data
		if table5Apps[app] {
			for _, alg := range append([]string{"LOAD-BAL"}, sharingAlgorithms...) {
				for _, procs := range spec.procs {
					c := cell{app, alg, procs, true}
					res, _, err := l.simulate(tr, data, c)
					if err != nil {
						return nil, err
					}
					add(c, res)
					p.secondCells++
				}
			}
		}
		for _, procs := range spec.procs {
			if procs*dynamicContexts > tr.NumThreads() {
				continue
			}
			for _, longest := range []bool{false, true} {
				res, err := l.simulateDynamic(tr, app, procs, dynamicContexts, longest)
				if err != nil {
					return nil, err
				}
				add(cell{app: app, procs: procs}, res)
				p.secondCells++
			}
		}
	}
	end := time.Now()
	p.second = end.Sub(secondStart)
	p.total = end.Sub(start)
	if traced {
		l.finish("pass", start, end)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.mem.NumGC = after.NumGC - before.NumGC
		p.mem.PauseTotalNs = after.PauseTotalNs - before.PauseTotalNs
		p.mem.TotalAlloc = after.TotalAlloc - before.TotalAlloc
	}
	return p, nil
}

// gridDigest hashes the JSON encoding of every result of a pass in order.
func gridDigest(results []*mtsim.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		data, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		h.Write(data)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkGrid checks every pass, untimed: all passes must agree, the digest
// must match the stored one when the seed and size have one, and the
// cross-check cells must match the reference engine run by an mtserve.
func checkGrid(ctx context.Context, b *bench, spec gridSpec, params mtsim.Params, passes []*gridPass, rep *report) error {
	byCell := make(map[cell]*mtsim.Result)
	for i, c := range passes[0].cells {
		if c.alg != "" {
			byCell[c] = passes[0].results[i]
		}
	}
	if b.corrupt {
		victim := passes[0].results[0]
		if len(spec.xcheck) > 0 {
			victim = byCell[spec.xcheck[0]]
		}
		victim.ExecTime++
	}
	var first string
	for i, p := range passes {
		d, err := gridDigest(p.results)
		if err != nil {
			return err
		}
		if i == 0 {
			first = d
			continue
		}
		if d != first {
			rep.diverge("paper-grid pass %d digest %s differs from pass 0 digest %s", i, d, first)
		}
	}
	rep.notes["digest"] = first
	if want, ok := storedGridDigest(spec, params); ok {
		rep.notes["digest_checked"] = true
		if first != want {
			rep.diverge("paper-grid digest %s, stored digest for seed %d is %s", first, params.Seed, want)
		}
	}
	if len(spec.xcheck) == 0 {
		return nil
	}

	d, err := startServe(ctx, b, "xcheck", nil, false)
	if err != nil {
		return err
	}
	defer d.stop()
	client := newClient(d.url)
	defer client.http.CloseIdleConnections()
	l := newLib(params, false)
	type prepared struct {
		tr   *mtsim.Trace
		data *mtsim.SharingData
	}
	prep := make(map[string]prepared)
	for _, c := range spec.xcheck {
		local, ok := byCell[c]
		if !ok {
			return fmt.Errorf("cross-check cell %+v is not in the grid", c)
		}
		p, ok := prep[c.app]
		if !ok {
			tr, data, err := l.prepare(c.app)
			if err != nil {
				return err
			}
			p = prepared{tr, data}
			prep[c.app] = p
		}
		pl, err := mtsim.PlaceData(p.data, c.alg, c.procs, suiteRandomSeed(c.app, c.procs))
		if err != nil {
			return err
		}
		cfg, err := l.suite.Config(c.app, c.procs, c.infinite)
		if err != nil {
			return err
		}
		got, err := client.referenceCell(params, c.app, pl, cfg)
		rep.opResult(err)
		if err != nil {
			return fmt.Errorf("reference cross-check %+v: %w", c, err)
		}
		if err := sameResult(got, local); err != nil {
			rep.diverge("paper-grid %s %s/%d infinite=%v: fast engine differs from reference engine: %v",
				c.app, c.alg, c.procs, c.infinite, err)
		}
	}
	rep.notes["xcheck_cells"] = len(spec.xcheck)
	return nil
}

// probeSetup measures, n times, how long a fresh process takes from exec
// until it has initialised the library and planned the grid (see
// readyProbe), and returns the times in seconds.
func probeSetup(ctx context.Context, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, self, "-ready-probe")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("ready probe printed %q: %v", line, errors.Join(rerr, werr))
		}
		if werr != nil {
			return nil, fmt.Errorf("ready probe: %w", werr)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// readyProbe is the child side of probeSetup: it builds the suite and the
// machine configuration of every grid cell, the set-up that precedes the
// first timed operation, then reports ready.
func readyProbe(stdout io.Writer) int {
	spec := defaultGrid()
	suite := mtsim.NewSuite(mtsim.Options{Params: mtsim.Params{Scale: spec.scale, Seed: 1}})
	n := 0
	for _, app := range spec.apps {
		for _, procs := range spec.procs {
			for _, inf := range []bool{false, true} {
				if _, err := suite.Config(app, procs, inf); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				n++
			}
		}
	}
	if n == 0 || len(mtsim.Algorithms()) == 0 {
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	return 0
}

// gridLayers fills the per-layer metrics of a traced paper-grid run from
// its traced passes: per-pass totals, median over passes.
func gridLayers(rep *report, passes []*gridPass, untraced []time.Duration) {
	zeroLayers(rep)
	var libs []map[string]float64
	var traced, plain, gcs, pauses, allocs []float64
	for _, p := range passes {
		libs = append(libs, p.lib.metrics())
		traced = append(traced, p.total.Seconds())
		gcs = append(gcs, float64(p.mem.NumGC))
		pauses = append(pauses, float64(p.mem.PauseTotalNs)/1e6)
		allocs = append(allocs, float64(p.mem.TotalAlloc)/(1<<20))
	}
	for name := range libs[0] {
		var xs []float64
		for _, m := range libs {
			xs = append(xs, m[name])
		}
		rep.set(name, "", median(xs))
	}
	for _, d := range untraced {
		plain = append(plain, d.Seconds())
	}
	rep.set("runtime.gc_cycles", "", median(gcs))
	rep.set("runtime.gc_pause_ms", "", median(pauses))
	rep.set("runtime.alloc_mb", "", median(allocs))
	rep.set("obs.trace_overhead_pct", "", 100*(median(traced)/median(plain)-1))
	rep.notes["traced_passes"] = len(passes)
	rep.notes["untraced_passes"] = len(untraced)
}

// zeroLayers sets every per-layer metric to 0, the value of a layer the
// workload's path does not reach.
func zeroLayers(rep *report) {
	for _, d := range perLayer {
		rep.metrics[d.name] = 0
	}
}
