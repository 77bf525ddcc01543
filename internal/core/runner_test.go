package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runnerOptions returns the reduced-scale options the runner tests use.
func runnerOptions() Options {
	opts := DefaultOptions()
	opts.Params = workload.Params{Scale: 1, Seed: 1994}
	opts.ProcCounts = []int{2, 4}
	return opts
}

// TestRunnerSeesEverySimulation: every simulation a sweep performs —
// memoized cells, the coherence measurement, cache sweeps and dynamic
// scheduling — funnels through the installed Runner hook.
func TestRunnerSeesEverySimulation(t *testing.T) {
	var runs, dynRuns atomic.Uint64
	opts := runnerOptions()
	opts.Runner = func(tr *trace.Trace, spec sim.Spec) (*sim.Result, error) {
		if spec.Placement == nil {
			dynRuns.Add(1)
		} else {
			runs.Add(1)
		}
		return sim.Run(tr, spec)
	}
	s := NewSuite(opts)

	if _, err := s.RunOne("MP3D", "LOAD-BAL", 2, false); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("RunOne drove %d runner calls, want 1", runs.Load())
	}
	// A memoized re-run must not re-enter the runner.
	if _, err := s.RunOne("MP3D", "LOAD-BAL", 2, false); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("memoized cell re-entered the runner (%d calls)", runs.Load())
	}
	if _, _, err := s.CoherenceMeasurement("MP3D"); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("coherence measurement bypassed the runner (%d calls)", runs.Load())
	}
	if _, err := s.DynamicComparison([]string{"MP3D"}, 2, 2); err != nil {
		t.Fatal(err)
	}
	if dynRuns.Load() != 2 {
		t.Fatalf("dynamic comparison drove %d dynamic runner calls, want 2 (FIFO, LPT)", dynRuns.Load())
	}
}

// TestRunnerEngineGuardDropIn: a resilience.EngineGuard installs as the
// suite's Runner unchanged and leaves every result bit-identical to an
// unguarded suite.
func TestRunnerEngineGuardDropIn(t *testing.T) {
	plain := NewSuite(runnerOptions())
	want, err := plain.RunOne("Water", "SHARE-REFS", 4, false)
	if err != nil {
		t.Fatal(err)
	}

	g := &resilience.EngineGuard{SampleEvery: 1}
	opts := runnerOptions()
	opts.Runner = g.Run
	guarded := NewSuite(opts)
	got, err := guarded.RunOne("Water", "SHARE-REFS", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("guarded suite result differs from unguarded suite")
	}
	if g.Degraded() {
		t.Error("healthy sweep degraded the guard")
	}
	runs, checks := g.Stats()
	if runs != 1 || checks != 1 {
		t.Errorf("guard stats %d/%d, want 1/1", runs, checks)
	}
}
