package sim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
)

// Guard bounds a simulation run. The paper's sweeps chain thousands of
// runs; one livelocked dynamic schedule (or a pathological config) must
// abort with a diagnostic instead of spinning the whole sweep forever.
// The zero Guard imposes no bounds and adds no per-event cost beyond one
// nil check.
type Guard struct {
	// MaxSteps aborts the run after that many events (issued references
	// and idle wake-ups) have been processed. 0 means unlimited. A finite
	// trace issues each reference exactly once per context activation, so
	// any bound comfortably above the trace's total reference count only
	// ever fires on livelock.
	MaxSteps uint64
	// Cancel, when non-nil, is polled periodically (every few thousand
	// steps); once it reads true the run aborts. Setting it from another
	// goroutine is the supported way to impose wall-clock timeouts.
	Cancel *atomic.Bool
}

// enabled reports whether the guard imposes any bound.
func (g Guard) enabled() bool { return g.MaxSteps != 0 || g.Cancel != nil }

// cancelPollMask: the cancel flag is polled every 4096 steps, keeping the
// atomic load off almost every hot-loop iteration.
const cancelPollMask = 4095

// guardState is the per-run watchdog embedded in both engines' machines.
// A nil *guardState is the unguarded hot path.
type guardState struct {
	maxSteps uint64
	cancel   *atomic.Bool
	steps    uint64
	canceled bool
}

func newGuardState(g Guard) *guardState {
	if !g.enabled() {
		return nil
	}
	return &guardState{maxSteps: g.MaxSteps, cancel: g.Cancel}
}

// tripped counts one simulation step and reports whether the run must
// abort. It is on the per-event hot path: no allocation, one atomic load
// every 4096 steps, everything else plain arithmetic. Error construction
// lives in budgetError, off the hot path.
//
//mtlint:hotpath
func (g *guardState) tripped() bool {
	g.steps++
	if g.maxSteps != 0 && g.steps > g.maxSteps {
		return true
	}
	if g.cancel != nil && g.steps&cancelPollMask == 0 && g.cancel.Load() {
		g.canceled = true
		return true
	}
	return false
}

// BudgetError reports a run aborted by its Guard, with enough context to
// tell a livelock (queue still busy at a huge cycle count) from an
// external cancellation.
type BudgetError struct {
	// App and Algorithm identify the aborted run.
	App, Algorithm string
	// Engine is "fast" or "reference".
	Engine string
	// Steps is the number of events processed before the abort: issued
	// references plus idle wake-ups. On online runs the reference engine
	// also counts the superseded wake entries it skips.
	Steps uint64
	// Cycle is the simulated time of the last processed event.
	Cycle uint64
	// Queue is the number of processors with a pending event at abort
	// (see obs.Probe.QueueDepth).
	Queue int
	// Canceled is true when the guard's Cancel flag (not the step budget)
	// stopped the run.
	Canceled bool
}

// Error implements error.
func (e *BudgetError) Error() string {
	cause := fmt.Sprintf("step budget (%d steps) exhausted", e.Steps)
	if e.Canceled {
		cause = fmt.Sprintf("canceled after %d steps", e.Steps)
	}
	return fmt.Sprintf("sim: %s/%s aborted on %s engine: %s at cycle %d with %d queued events",
		e.App, e.Algorithm, e.Engine, cause, e.Cycle, e.Queue)
}

// budgetError builds the abort diagnostic (cold path) and reports the
// watchdog trip to the probe.
func (g *guardState) budgetError(meta obs.RunMeta, cycle uint64, queue int, probe obs.Probe) error {
	if probe != nil {
		probe.Fault(cycle, obs.FaultWatchdog)
	}
	return &BudgetError{
		App: meta.App, Algorithm: meta.Algorithm, Engine: meta.Engine,
		Steps: g.steps, Cycle: cycle, Queue: queue, Canceled: g.canceled,
	}
}

// fastFault, when set, mutates the fast engine's Result just before it is
// returned — a deliberate, test-only corruption hook the divergence-guard
// demo uses to prove a broken fast engine is caught and benched at
// runtime. Atomic so tests and sweeps on other goroutines never race.
var fastFault atomic.Pointer[func(*Result)]

// SetFastEngineFault installs (or, with nil, clears) a test-only hook
// that corrupts every subsequent fast-engine Result. It returns the
// previous hook so tests can restore it.
func SetFastEngineFault(f func(*Result)) (prev func(*Result)) {
	var p *func(*Result)
	if f != nil {
		p = &f
	}
	if old := fastFault.Swap(p); old != nil {
		return *old
	}
	return nil
}
