package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestReusePredictsFullyAssociativeMisses cross-validates the analytical
// reuse-distance model against the simulator: for a single thread on one
// processor with a fully associative LRU cache sized at a power of two,
// the histogram's predicted miss ratio is exact (no coherence, no
// conflicts beyond capacity), so the two must agree.
func TestReusePredictsFullyAssociativeMisses(t *testing.T) {
	s := testSuite()
	full, err := s.Trace("Barnes-Hut")
	if err != nil {
		t.Fatal(err)
	}
	h := analysis.ThreadReuse(full.Threads[0], sim.DefaultLineSize)

	// Extract thread 0 into a standalone single-thread trace.
	one := trace.New(full.App, 1)
	r := trace.NewRecorder(one, 0)
	for c := full.Threads[0].Cursor(); ; {
		e, ok := c.Next()
		if !ok {
			break
		}
		r.Compute(int(e.Gap))
		r.Ref(e.Kind, e.Addr)
	}

	for _, blocks := range []int{64, 256, 1024} {
		cfg := sim.DefaultConfig(1)
		cfg.CacheSize = blocks * sim.DefaultLineSize
		cfg.Associativity = blocks // fully associative
		pl := &placement.Placement{Algorithm: "ONE", Clusters: [][]int{{0}}}
		res, err := sim.Run(one, sim.Spec{Config: cfg, Placement: pl})
		if err != nil {
			t.Fatal(err)
		}
		tot := res.Totals()
		simRatio := float64(tot.TotalMisses()) / float64(tot.Refs)
		predicted := h.MissRatio(blocks)
		if diff := simRatio - predicted; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("cache %d blocks: simulated %.6f vs predicted %.6f", blocks, simRatio, predicted)
		}
	}
}
