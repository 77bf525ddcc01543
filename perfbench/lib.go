package main

import (
	"fmt"
	"hash/fnv"
	"runtime/metrics"
	"time"

	mtsim "repro"
)

// cell names one static cell: an app under a placement algorithm on a
// machine of procs processors with its finite or infinite cache. The
// dynamic baselines of paper-grid have no algorithm.
type cell struct {
	app, alg string
	procs    int
	infinite bool
}

// suiteRandomSeed is the RANDOM placement seed core.Suite (and so mtserve)
// uses for a cell: the suite seed (1 by default) xor the FNV-64a hash of
// "app/procs". Using the same rule makes the benchmark's RANDOM cells the
// paper's and the server's cells.
func suiteRandomSeed(app string, procs int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", app, procs)
	return mtsim.DefaultOptions().RandomSeed ^ int64(h.Sum64())
}

// lib runs cells through the mtsim facade: build, analyze, sharing,
// placement and simulation. On a traced run it records a span around each
// facade call and the bytes analysis and simulation allocate; untraced,
// every method is the plain call.
type lib struct {
	params mtsim.Params
	suite  *mtsim.Suite // only its Config: each app's machine
	t      *tracer      // nil untraced
	root   string

	builtRefs     uint64 // references of every trace built
	simRefs       uint64 // references simulated
	analysisAlloc uint64 // bytes allocated by Analyze and Sharing, traced only
	simAlloc      uint64 // bytes allocated by the engine runs, traced only
}

func newLib(params mtsim.Params, traced bool) *lib {
	l := &lib{params: params, suite: mtsim.NewSuite(mtsim.Options{Params: params})}
	if traced {
		l.t = &tracer{}
		l.root = l.t.newID()
	}
	return l
}

// allocated is the process's cumulative heap allocation on a traced run
// (0 untraced), read outside the spans it brackets. runtime/metrics reads
// it without stopping the world, unlike runtime.ReadMemStats.
func (l *lib) allocated() uint64 {
	if l.t == nil {
		return 0
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// prepare builds an app's trace and its sharing matrices.
func (l *lib) prepare(app string) (*mtsim.Trace, *mtsim.SharingData, error) {
	t0 := time.Now()
	tr, err := mtsim.BuildApp(app, l.params)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	a0 := l.allocated()
	t2 := time.Now()
	set := mtsim.Analyze(tr)
	t3 := time.Now()
	data := set.Sharing()
	t4 := time.Now()
	l.analysisAlloc += l.allocated() - a0
	l.builtRefs += tr.TotalRefs()
	l.t.add(l.root, "workload.build", "BuildApp "+app, t0, t1)
	l.t.add(l.root, "analysis.analyze", "Analyze "+app, t2, t3)
	l.t.add(l.root, "analysis.sharing", "Sharing "+app, t3, t4)
	return tr, data, nil
}

// simulate places and simulates one static cell, returning the result and
// the latency of the Simulate call alone.
func (l *lib) simulate(tr *mtsim.Trace, data *mtsim.SharingData, c cell) (*mtsim.Result, time.Duration, error) {
	t0 := time.Now()
	pl, err := mtsim.PlaceData(data, c.alg, c.procs, suiteRandomSeed(c.app, c.procs))
	if err != nil {
		return nil, 0, fmt.Errorf("%+v: %w", c, err)
	}
	t1 := time.Now()
	cfg, err := l.suite.Config(c.app, c.procs, c.infinite)
	if err != nil {
		return nil, 0, err
	}
	a0 := l.allocated()
	t2 := time.Now()
	res, err := mtsim.Simulate(tr, pl, cfg)
	t3 := time.Now()
	l.simAlloc += l.allocated() - a0
	if err != nil {
		return nil, 0, fmt.Errorf("%+v: %w", c, err)
	}
	layer := "sim.run"
	if c.infinite {
		layer = "sim.infinite_run"
	}
	l.t.add(l.root, "placement.place", "PlaceData "+c.alg, t0, t1)
	l.t.add(l.root, layer, "Simulate "+c.app+" "+c.alg, t2, t3)
	l.simRefs += res.Totals().Refs
	return res, t3.Sub(t2), nil
}

// simulateDynamic runs one self-scheduling baseline with contexts
// hardware contexts per processor.
func (l *lib) simulateDynamic(tr *mtsim.Trace, app string, procs, contexts int, longestFirst bool) (*mtsim.Result, error) {
	cfg, err := l.suite.Config(app, procs, false)
	if err != nil {
		return nil, err
	}
	cfg.MaxContexts = contexts
	a0 := l.allocated()
	t0 := time.Now()
	res, err := mtsim.SimulateDynamic(tr, cfg, longestFirst)
	t1 := time.Now()
	l.simAlloc += l.allocated() - a0
	if err != nil {
		return nil, err
	}
	l.t.add(l.root, "sim.dynamic_run", "SimulateDynamic "+app, t0, t1)
	l.simRefs += res.Totals().Refs
	return res, nil
}

// finish closes the root span over [start, end].
func (l *lib) finish(name string, start, end time.Time) {
	l.t.record(l.root, "", "", name, start, end)
}

// metrics returns the workload, analysis, placement and sim layer
// metrics of a traced run: self times summed over its spans.
func (l *lib) metrics() map[string]float64 {
	st := selfTimes(l.t.snapshot())
	engine := st["sim.run"].self + st["sim.infinite_run"].self + st["sim.dynamic_run"].self
	runs := st["sim.run"].count + st["sim.infinite_run"].count + st["sim.dynamic_run"].count
	m := map[string]float64{
		"workload.build_ms":    ms(st["workload.build"].self),
		"workload.refs":        float64(l.builtRefs),
		"analysis.analyze_ms":  ms(st["analysis.analyze"].self),
		"analysis.sharing_ms":  ms(st["analysis.sharing"].self),
		"analysis.alloc_mb":    float64(l.analysisAlloc) / (1 << 20),
		"placement.place_ms":   ms(st["placement.place"].self),
		"placement.calls":      float64(st["placement.place"].count),
		"sim.run_ms":           ms(st["sim.run"].self),
		"sim.infinite_run_ms":  ms(st["sim.infinite_run"].self),
		"sim.dynamic_run_ms":   ms(st["sim.dynamic_run"].self),
		"sim.runs":             float64(runs),
		"sim.refs_per_s":       0,
		"sim.alloc_mb_per_run": 0,
	}
	if runs > 0 && engine > 0 {
		m["sim.refs_per_s"] = float64(l.simRefs) / engine.Seconds()
		m["sim.alloc_mb_per_run"] = float64(l.simAlloc) / (1 << 20) / float64(runs)
	}
	return m
}
