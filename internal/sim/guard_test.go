package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// guardTrace builds a multi-thread shared-access workload big enough for
// the watchdog to have something to interrupt.
func guardTrace(threads, refs int) *trace.Trace {
	rng := rand.New(rand.NewSource(42))
	tr := trace.New("guard", threads)
	for i := 0; i < threads; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < refs; j++ {
			r.Compute(rng.Intn(4))
			addr := sh(rng.Intn(64))
			if rng.Intn(3) == 0 {
				r.Store(addr)
			} else {
				r.Load(addr)
			}
		}
	}
	return tr
}

func TestGuardZeroValueIsPlainRun(t *testing.T) {
	tr := guardTrace(4, 200)
	pl := mkPlacement([]int{0, 1}, []int{2, 3})
	cfg := DefaultConfig(2)
	// The independent oracle for each engine is the other engine's plain
	// run: the engines agree cycle for cycle on unguarded runs.
	for _, eng := range []Engine{FastEngine, ReferenceEngine} {
		plain, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: otherEngine(eng)})
		if err != nil {
			t.Fatal(err)
		}
		guarded, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: eng, Guard: Guard{}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, guarded) {
			t.Errorf("%s: zero-guard result differs from the %s engine's plain run", eng, otherEngine(eng))
		}
	}
}

// otherEngine returns the engine a differential compares eng against.
func otherEngine(eng Engine) Engine {
	if eng == FastEngine {
		return ReferenceEngine
	}
	return FastEngine
}

func TestGuardLooseBudgetDoesNotFire(t *testing.T) {
	tr := guardTrace(4, 100)
	pl := mkPlacement([]int{0, 1}, []int{2, 3})
	cfg := DefaultConfig(2)
	for _, eng := range []Engine{FastEngine, ReferenceEngine} {
		plain, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		// A finite run processes a bounded number of engine events; any
		// budget above that must not alter the result.
		guarded, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: eng, Guard: Guard{MaxSteps: 1 << 30}})
		if err != nil {
			t.Fatalf("%s: loose budget fired: %v", eng, err)
		}
		if !reflect.DeepEqual(plain, guarded) {
			t.Errorf("%s: guarded result differs from plain run", eng)
		}
	}
}

func TestGuardStepBudgetAborts(t *testing.T) {
	tr := guardTrace(4, 500)
	pl := mkPlacement([]int{0, 1}, []int{2, 3})
	cfg := DefaultConfig(2)
	for _, eng := range []Engine{FastEngine, ReferenceEngine} {
		probe := &obs.Counter{}
		res, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: eng, Probe: probe, Guard: Guard{MaxSteps: 100}})
		if err == nil {
			t.Fatalf("%s: budget of 100 steps did not abort (result %v)", eng, res)
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: got %v, want *BudgetError", eng, err)
		}
		if be.Canceled {
			t.Errorf("%s: Canceled set on a step-budget abort", eng)
		}
		if be.Steps != 101 {
			t.Errorf("%s: aborted after %d steps, want 101", eng, be.Steps)
		}
		if be.Engine != eng.String() || be.App != "guard" {
			t.Errorf("%s: diagnostic names %s/%s", eng, be.Engine, be.App)
		}
		if be.Error() == "" {
			t.Errorf("%s: empty diagnostic", eng)
		}
		if probe.Faults[obs.FaultWatchdog] != 1 {
			t.Errorf("%s: watchdog fault events = %d, want 1", eng, probe.Faults[obs.FaultWatchdog])
		}
	}
}

func TestGuardCancelAborts(t *testing.T) {
	tr := guardTrace(6, 3000)
	pl := mkPlacement([]int{0, 1, 2}, []int{3, 4, 5})
	cfg := DefaultConfig(2)
	for _, eng := range []Engine{FastEngine, ReferenceEngine} {
		var cancel atomic.Bool
		cancel.Store(true) // pre-canceled: must abort at the first poll
		_, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: eng, Guard: Guard{Cancel: &cancel}})
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: got %v, want *BudgetError", eng, err)
		}
		if !be.Canceled {
			t.Errorf("%s: Canceled not set on a cancellation abort", eng)
		}
		// The flag is polled every cancelPollMask+1 steps.
		if be.Steps != cancelPollMask+1 {
			t.Errorf("%s: aborted after %d steps, want %d", eng, be.Steps, cancelPollMask+1)
		}
	}
}

func TestGuardDynamic(t *testing.T) {
	tr := guardTrace(8, 400)
	cfg := DefaultConfig(2)

	plain, err := Run(tr, Spec{Config: cfg, Schedule: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{FastEngine, ReferenceEngine} {
		guarded, err := Run(tr, Spec{Config: cfg, Schedule: FIFO, Engine: eng, Guard: Guard{MaxSteps: 1 << 30}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, guarded) {
			t.Errorf("%s: guarded dynamic result differs from plain run", eng)
		}

		_, err = Run(tr, Spec{Config: cfg, Schedule: FIFO, Engine: eng, Guard: Guard{MaxSteps: 50}})
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: dynamic budget abort: got %v, want *BudgetError", eng, err)
		}
		if be.Steps != 51 || be.Engine != eng.String() {
			t.Errorf("dynamic budget abort: %d steps on %s, want 51 on %s", be.Steps, be.Engine, eng)
		}
	}
}

func TestSetFastEngineFault(t *testing.T) {
	tr := guardTrace(4, 100)
	pl := mkPlacement([]int{0, 1}, []int{2, 3})
	cfg := DefaultConfig(2)

	honest, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: FastEngine})
	if err != nil {
		t.Fatal(err)
	}
	prev := SetFastEngineFault(func(r *Result) { r.ExecTime += 1000 })
	defer SetFastEngineFault(prev)

	broken, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: FastEngine})
	if err != nil {
		t.Fatal(err)
	}
	if broken.ExecTime != honest.ExecTime+1000 {
		t.Errorf("fault hook not applied: %d vs %d", broken.ExecTime, honest.ExecTime)
	}
	// The reference engine must be untouched by the hook.
	ref, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: ReferenceEngine})
	if err != nil {
		t.Fatal(err)
	}
	if ref.ExecTime != honest.ExecTime {
		t.Errorf("reference engine affected by fast-engine fault hook")
	}

	if SetFastEngineFault(nil) == nil {
		t.Error("SetFastEngineFault(nil) did not return the installed hook")
	}
	clean, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: FastEngine})
	if err != nil {
		t.Fatal(err)
	}
	if clean.ExecTime != honest.ExecTime {
		t.Error("clearing the fault hook did not restore honest results")
	}
}
