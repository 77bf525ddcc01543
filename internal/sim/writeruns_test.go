package sim

import (
	"testing"

	"repro/internal/trace"
)

func TestWriteRunTrackerDirect(t *testing.T) {
	w := newWriteRunTracker()
	// Block 1: thread 0 writes 8 times, then thread 1 writes 8 times:
	// two long runs -> migratory.
	for i := 0; i < 8; i++ {
		w.observe(1, 0)
	}
	for i := 0; i < 8; i++ {
		w.observe(1, 1)
	}
	// Block 2: strict ping-pong.
	for i := 0; i < 8; i++ {
		w.observe(2, int32(i%2))
	}
	// Block 3: single writer.
	w.observe(3, 5)
	w.observe(3, 5)

	s := w.stats()
	if s.WrittenBlocks != 3 {
		t.Errorf("written blocks = %d, want 3", s.WrittenBlocks)
	}
	if s.SingleWriterBlocks != 1 {
		t.Errorf("single-writer blocks = %d, want 1", s.SingleWriterBlocks)
	}
	if s.MigratoryBlocks != 1 {
		t.Errorf("migratory blocks = %d, want 1", s.MigratoryBlocks)
	}
	if s.PingPongBlocks != 1 {
		t.Errorf("ping-pong blocks = %d, want 1", s.PingPongBlocks)
	}
	if s.MigratoryPct() != 50 {
		t.Errorf("migratory pct = %v, want 50", s.MigratoryPct())
	}
	// Mean run: block1 has 16 writes in 2 runs; block2 has 8 writes in
	// 8 runs -> (16+8)/(2+8) = 2.4.
	if s.MeanRunLength < 2.39 || s.MeanRunLength > 2.41 {
		t.Errorf("mean run length = %v, want 2.4", s.MeanRunLength)
	}
}

func TestWriteRunsThroughSimulation(t *testing.T) {
	// Thread 0 writes block X ten times early; thread 1 writes it ten
	// times later: simulation order preserves the two long runs.
	x := shBlock(0)
	var t0, t1 []trace.Event
	for i := 0; i < 10; i++ {
		t0 = append(t0, trace.Event{Gap: 1, Kind: trace.Write, Addr: x})
	}
	for i := 0; i < 10; i++ {
		t1 = append(t1, trace.Event{Gap: 200, Kind: trace.Write, Addr: x})
	}
	tr := mkTrace(t0, t1)
	cfg := DefaultConfig(2)
	cfg.TrackWriteRuns = true
	res, err := Run(tr, Spec{Config: cfg, Placement: mkPlacement([]int{0}, []int{1})})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteRuns == nil {
		t.Fatal("write runs not collected")
	}
	if res.WriteRuns.MigratoryBlocks != 1 {
		t.Errorf("stats = %+v, want one migratory block", res.WriteRuns)
	}

	// Disabled by default.
	res, err = Run(tr, Spec{Config: DefaultConfig(2), Placement: mkPlacement([]int{0}, []int{1})})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteRuns != nil {
		t.Error("write runs collected without the flag")
	}
}

func TestWriteRunsIgnorePrivateWrites(t *testing.T) {
	tr := mkTrace([]trace.Event{
		{Kind: trace.Write, Addr: 64},    // private
		{Kind: trace.Write, Addr: sh(0)}, // shared
	})
	cfg := DefaultConfig(1)
	cfg.TrackWriteRuns = true
	res, err := Run(tr, Spec{Config: cfg, Placement: mkPlacement([]int{0})})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteRuns.WrittenBlocks != 1 {
		t.Errorf("written blocks = %d, want 1 (shared only)", res.WriteRuns.WrittenBlocks)
	}
}
