package core

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDifferentialEngines is the harness that proves the fast engine
// cycle-exact on the real workload: every application, three
// representative placement algorithms (the paper's baselines RANDOM and
// LOAD-BAL plus the best sharing-based algorithm SHARE-REFS), at 2 and 8
// processors. The reference and fast engines must produce deeply equal
// Results — execution times, per-processor stats, miss components,
// invalidations, write runs, everything.
func TestDifferentialEngines(t *testing.T) {
	s := testSuite()
	algs := []string{"RANDOM", "LOAD-BAL", "SHARE-REFS"}
	procCounts := []int{2, 8}
	for _, a := range workload.Apps() {
		app := a.Name
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			tr, err := s.Trace(app)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range algs {
				for _, procs := range procCounts {
					pl, err := s.Place(app, alg, procs)
					if err != nil {
						t.Fatal(err)
					}
					cfg, err := s.Config(app, procs, false)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := sim.Run(tr, sim.Spec{Config: cfg, Placement: pl, Engine: sim.ReferenceEngine})
					if err != nil {
						t.Fatalf("%s/%dp: reference engine: %v", alg, procs, err)
					}
					fast, err := sim.Run(tr, sim.Spec{Config: cfg, Placement: pl, Engine: sim.FastEngine})
					if err != nil {
						t.Fatalf("%s/%dp: fast engine: %v", alg, procs, err)
					}
					if !reflect.DeepEqual(ref, fast) {
						t.Errorf("%s/%dp: engines diverge:\n  reference: exec %d, totals %+v\n  fast:      exec %d, totals %+v",
							alg, procs, ref.ExecTime, ref.Totals(), fast.ExecTime, fast.Totals())
					}
				}
			}
		})
	}
}

// TestDifferentialDynamic extends the harness to dynamic self-scheduling,
// the paper's load-balancing baseline: every application under FIFO and
// longest-first scheduling, at 1 and 2 contexts per processor, on 2 and 8
// processors. Threads pulled from the global queue mid-run must land on
// the same processors at the same cycles on both engines.
func TestDifferentialDynamic(t *testing.T) {
	s := testSuite()
	for _, a := range workload.Apps() {
		app := a.Name
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			tr, err := s.Trace(app)
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []sim.SchedulePolicy{sim.FIFO, sim.LongestFirst} {
				for _, procs := range []int{2, 8} {
					for _, contexts := range []int{1, 2} {
						cfg, err := s.Config(app, procs, false)
						if err != nil {
							t.Fatal(err)
						}
						cfg.MaxContexts = contexts
						var res [2]*sim.Result
						for i, eng := range []sim.Engine{sim.ReferenceEngine, sim.FastEngine} {
							if res[i], err = sim.Run(tr, sim.Spec{Config: cfg, Schedule: policy, Engine: eng}); err != nil {
								t.Fatalf("%v/%dp/%dctx: %v engine: %v", policy, procs, contexts, eng, err)
							}
						}
						if ref, fast := res[0], res[1]; !reflect.DeepEqual(ref, fast) {
							t.Errorf("%v/%dp/%dctx: engines diverge:\n  reference: exec %d, totals %+v\n  fast:      exec %d, totals %+v",
								policy, procs, contexts, ref.ExecTime, ref.Totals(), fast.ExecTime, fast.Totals())
						}
					}
				}
			}
		})
	}
}

// TestDifferential64Processors runs the largest processor count the fast
// engine's next-event scan is tested at: Gauss, whose 127 threads put
// about two contexts on each of 64 processors.
func TestDifferential64Processors(t *testing.T) {
	s := testSuite()
	tr, err := s.Trace("Gauss")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := s.Place("Gauss", "LOAD-BAL", 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config("Gauss", 64, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run(tr, sim.Spec{Config: cfg, Placement: pl, Engine: sim.ReferenceEngine})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sim.Run(tr, sim.Spec{Config: cfg, Placement: pl, Engine: sim.FastEngine})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, fast) {
		t.Errorf("engines diverge at 64 processors: reference exec %d, fast exec %d", ref.ExecTime, fast.ExecTime)
	}
}
