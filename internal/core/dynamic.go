package core

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/sim"
)

// DynamicRow compares static placements against online self-scheduling
// for one application.
type DynamicRow struct {
	App string
	// StaticLoadBal is LOAD-BAL's execution time under the same
	// hardware-context cap (the oracle static baseline: it knows exact
	// thread lengths a priori).
	StaticLoadBal uint64
	// StaticRandomNorm is RANDOM's execution time over LOAD-BAL's.
	StaticRandomNorm float64
	// DynamicFIFONorm and DynamicLPTNorm are the online schedulers'
	// execution times over LOAD-BAL's.
	DynamicFIFONorm float64
	DynamicLPTNorm  float64
}

// DynamicComparison pits the paper's static placements against an online
// self-scheduler (an extension: the paper studies only static placement,
// describing RANDOM as what a low-overhead runtime scheduler would
// achieve). contextsPerProc seeds that many hardware contexts per
// processor; the scheduler hands out remaining threads as contexts free.
func (s *Suite) DynamicComparison(apps []string, procs, contextsPerProc int) ([]DynamicRow, error) {
	var rows []DynamicRow
	for _, app := range apps {
		tr, err := s.Trace(app)
		if err != nil {
			return nil, err
		}
		cfg, err := s.Config(app, procs, false)
		if err != nil {
			return nil, err
		}
		// Same hardware for everyone: contextsPerProc hardware contexts.
		cfg.MaxContexts = contextsPerProc
		lbPl, err := s.Place(app, "LOAD-BAL", procs)
		if err != nil {
			return nil, err
		}
		lb, err := s.run(tr, sim.Spec{Config: cfg, Placement: lbPl})
		if err != nil {
			return nil, err
		}
		rndPl, err := s.Place(app, "RANDOM", procs)
		if err != nil {
			return nil, err
		}
		random, err := s.run(tr, sim.Spec{Config: cfg, Placement: rndPl})
		if err != nil {
			return nil, err
		}
		fifo, err := s.run(tr, sim.Spec{Config: cfg, Schedule: sim.FIFO})
		if err != nil {
			return nil, err
		}
		lpt, err := s.run(tr, sim.Spec{Config: cfg, Schedule: sim.LongestFirst})
		if err != nil {
			return nil, err
		}
		base := float64(lb.ExecTime)
		rows = append(rows, DynamicRow{
			App:              app,
			StaticLoadBal:    lb.ExecTime,
			StaticRandomNorm: float64(random.ExecTime) / base,
			DynamicFIFONorm:  float64(fifo.ExecTime) / base,
			DynamicLPTNorm:   float64(lpt.ExecTime) / base,
		})
	}
	return rows, nil
}

// DynamicReport renders the static-vs-dynamic comparison.
func DynamicReport(procs, contexts int, rows []DynamicRow) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: static placement vs online self-scheduling (%d processors, %d seeded contexts)", procs, contexts),
		Note:    "(normalized to static LOAD-BAL, which knows exact thread lengths a priori)",
		Columns: []string{"Application", "LOAD-BAL exec", "RANDOM", "DYNAMIC fifo", "DYNAMIC longest-first"},
	}
	for _, r := range rows {
		t.AddRow(r.App, fmt.Sprint(r.StaticLoadBal), report.F(r.StaticRandomNorm, 3),
			report.F(r.DynamicFIFONorm, 3), report.F(r.DynamicLPTNorm, 3))
	}
	return t
}
