package main

import (
	"log/slog"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// timelineRun simulates one representative cell — the Figure 2
// application under LOAD-BAL at the largest requested processor count —
// with a Perfetto tracer attached and writes the timeline JSON to path.
// It is the sweep-level sibling of `mtsim -timeline`, using the exact
// suite configuration the tables and figures run under.
func timelineRun(scale float64, seed int64, procsSpec, path string, log *slog.Logger) error {
	pcs, err := parseProcs(procsSpec)
	if err != nil {
		return err
	}
	procs := pcs[0]
	for _, p := range pcs {
		if p > procs {
			procs = p
		}
	}
	const app, alg = "LocusRoute", "LOAD-BAL"
	curSection.Store("timeline " + app)

	opts := core.DefaultOptions()
	opts.Params = workload.Params{Scale: scale, Seed: seed}
	opts.ProcCounts = pcs
	s := core.NewSuite(opts)

	tr, err := s.Trace(app)
	if err != nil {
		return err
	}
	pl, err := s.Place(app, alg, procs)
	if err != nil {
		return err
	}
	cfg, err := s.Config(app, procs, false)
	if err != nil {
		return err
	}
	tracer := obs.NewTracer()
	res, err := sim.Run(tr, sim.Spec{Config: cfg, Placement: pl, Probe: tracer})
	if err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.Export(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Info("wrote timeline", "path", path, "app", app, "alg", alg, "procs", procs,
		"exec_cycles", res.ExecTime, "events", tracer.Events(),
		"hint", "open in https://ui.perfetto.dev")
	return nil
}
