package resilience

import (
	"fmt"
	"reflect"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// EngineGuard runs simulation cells on the fast engine while
// cross-checking a deterministic sample of them against the reference
// engine at runtime. The differential test suite already proves the two
// engines agree on the checked-in workloads; the guard covers the gap the
// suite cannot — the exact traces, configs and placements of a production
// sweep — and turns "the fast engine silently produced wrong numbers" into
// "the sweep finished on the reference engine and told you".
//
// On the first divergence the guard trips permanently: the divergent
// cell's reference result is returned (the reference engine is the
// oracle), OnFallback fires once with the report, and every subsequent
// run uses the reference engine. The sweep completes with correct
// numbers, slower, and the driver exits with the distinct "degraded"
// code.
//
// The guard is safe for concurrent use; core.Suite runs cells in
// parallel.
type EngineGuard struct {
	// SampleEvery cross-checks every Nth run (1 = every run; 0 or a
	// negative value disables cross-checking, and the guard then only
	// forwards to the fast engine, which makes the overhead of the wrapper
	// itself measurable).
	SampleEvery int
	// Probe, when non-nil, receives Fault events on divergence and
	// fallback. It is invoked under the guard's lock — cold path only.
	Probe obs.Probe
	// OnFallback, when non-nil, fires exactly once, on the run that
	// detected the divergence.
	OnFallback func(DivergenceReport)

	mu          sync.Mutex
	runs        uint64
	crossChecks uint64
	degraded    bool
	report      *DivergenceReport
}

// DivergenceReport describes a caught fast-engine divergence.
type DivergenceReport struct {
	// App, Algorithm and Processors identify the divergent cell.
	App, Algorithm string
	Processors     int
	// RunIndex is the 1-based guarded-run count at detection.
	RunIndex uint64
	// FastExec and RefExec are the two engines' execution times.
	FastExec, RefExec uint64
	// Detail summarizes where the results differ.
	Detail string
}

// String renders the report for logs.
func (r DivergenceReport) String() string {
	return fmt.Sprintf("engine divergence on %s/%s (%d procs, run %d): fast exec %d vs reference %d; %s",
		r.App, r.Algorithm, r.Processors, r.RunIndex, r.FastExec, r.RefExec, r.Detail)
}

// Degraded reports whether the guard has benched the fast engine.
func (g *EngineGuard) Degraded() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.degraded
}

// Report returns the divergence report, or nil while healthy.
func (g *EngineGuard) Report() *DivergenceReport {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.report == nil {
		return nil
	}
	rep := *g.report
	return &rep
}

// Stats returns the number of guarded runs and of reference cross-checks
// performed so far.
func (g *EngineGuard) Stats() (runs, crossChecks uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs, g.crossChecks
}

// Run simulates one cell through the guard: simulate on the fast engine
// (the reference once benched), cross-check a deterministic sample
// against the reference engine, and bench the fast engine on the first
// divergence. It matches sim.Run's signature, so core.Suite can adopt it
// as its Runner unchanged.
//
// The guard picks the engine, so s.Engine is ignored. s.Probe attaches
// to the authoritative run — the fast engine while healthy, the
// reference engine once benched — never to the sampled cross-check run,
// so probe counts always describe the result returned. s.Guard is the
// per-call watchdog: the serving layer gives every HTTP request its own
// cancellation flag and step budget while all requests share one
// EngineGuard (and therefore one degraded/benched state). Static, online
// and dynamic cells share the cross-check schedule; the sampled
// reference run of an online cell replays the identical boundary
// decisions and migrations.
func (g *EngineGuard) Run(tr *trace.Trace, s sim.Spec) (*sim.Result, error) {
	probe := s.Probe
	simulate := func(eng sim.Engine, probe obs.Probe) (*sim.Result, error) {
		s.Engine, s.Probe = eng, probe
		return sim.Run(tr, s)
	}
	g.mu.Lock()
	g.runs++
	run := g.runs
	degraded := g.degraded
	check := !degraded && g.SampleEvery > 0 && run%uint64(g.SampleEvery) == 0
	if check {
		g.crossChecks++
	}
	g.mu.Unlock()

	if degraded {
		return simulate(sim.ReferenceEngine, probe)
	}
	fast, err := simulate(sim.FastEngine, probe)
	if err != nil {
		return nil, err
	}
	if !check {
		return fast, nil
	}
	ref, err := simulate(sim.ReferenceEngine, nil)
	if err != nil {
		return nil, err
	}
	if reflect.DeepEqual(fast, ref) {
		return fast, nil
	}

	// Divergence: the reference engine is the oracle — its result stands,
	// the fast engine is benched for the rest of the process.
	rep := DivergenceReport{
		App: ref.App, Algorithm: ref.Algorithm, Processors: s.Config.Processors,
		RunIndex: run, FastExec: fast.ExecTime, RefExec: ref.ExecTime,
		Detail: divergenceDetail(fast, ref),
	}
	g.mu.Lock()
	first := !g.degraded
	if first {
		g.degraded = true
		g.report = &rep
	}
	if g.Probe != nil {
		g.Probe.Fault(ref.ExecTime, obs.FaultDivergence)
		if first {
			g.Probe.Fault(ref.ExecTime, obs.FaultFallback)
		}
	}
	g.mu.Unlock()
	if first && g.OnFallback != nil {
		g.OnFallback(rep)
	}
	return ref, nil
}

// divergenceDetail points at the first field the two results disagree on.
func divergenceDetail(fast, ref *sim.Result) string {
	switch {
	case fast.ExecTime != ref.ExecTime:
		return "execution times differ"
	case !reflect.DeepEqual(fast.Procs, ref.Procs):
		return "per-processor statistics differ"
	case !reflect.DeepEqual(fast.PairTraffic, ref.PairTraffic):
		return "pairwise traffic matrices differ"
	case !reflect.DeepEqual(fast.ThreadFinish, ref.ThreadFinish):
		return "thread finish times differ"
	default:
		return "results differ outside the headline fields"
	}
}
