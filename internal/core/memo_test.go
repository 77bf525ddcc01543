package core

import (
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPlacementMemoized: Place returns the identical *Placement for
// repeated calls on the same (app, algorithm, procs) cell.
func TestPlacementMemoized(t *testing.T) {
	s := testSuite()
	a, err := s.Place("Water", "SHARE-REFS", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Place("Water", "SHARE-REFS", 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("placement not memoized: distinct pointers for identical cell")
	}
	c, err := s.Place("Water", "SHARE-REFS", 8)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("distinct processor counts share a placement")
	}
}

// TestSimulationMemoized: RunOne returns the identical *Result for
// repeated calls on the same cell, and distinct cells do not collide.
func TestSimulationMemoized(t *testing.T) {
	s := testSuite()
	a, err := s.RunOne("MP3D", "LOAD-BAL", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunOne("MP3D", "LOAD-BAL", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("simulation not memoized: distinct pointers for identical cell")
	}
	inf, err := s.RunOne("MP3D", "LOAD-BAL", 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if a == inf {
		t.Error("finite and infinite cache configurations share a result")
	}
}

// TestMemoizationConcurrent hammers one cell from many goroutines; every
// caller must observe the same pointer (exercised under -race by the CI
// tier).
func TestMemoizationConcurrent(t *testing.T) {
	s := testSuite()
	const n = 16
	results := make([]*sim.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.RunOne("Cholesky", "SHARE-ADDR", 8, false)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d observed a different result pointer", i)
		}
	}
}

// TestPrepConcurrent: eight goroutines race Place and Sharing over four
// applications on a fresh suite. Each application resolves to one
// pointer-identical *SharingData, however the preparations interleave,
// and unknown application names leave no cell behind.
func TestPrepConcurrent(t *testing.T) {
	opts := DefaultOptions()
	opts.Params = workload.Params{Scale: 0.25, Seed: 1994}
	s := NewSuite(opts)
	apps := []string{"Water", "MP3D", "Cholesky", "FFT"}
	const workers = 8
	seen := make([][]*analysis.SharingData, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen[w] = make([]*analysis.SharingData, len(apps))
			for k := range apps {
				i := (w + k) % len(apps)
				if _, err := s.Place(apps[i], "SHARE-REFS", 4); err != nil {
					t.Error(err)
					return
				}
				d, err := s.Sharing(apps[i])
				if err != nil {
					t.Error(err)
					return
				}
				seen[w][i] = d
			}
			if _, err := s.Sharing("NoSuchApp"); err == nil {
				t.Error("unknown application resolved")
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, app := range apps {
		for w := 1; w < workers; w++ {
			if seen[w][i] != seen[0][i] {
				t.Fatalf("%s: goroutine %d resolved a different *SharingData", app, w)
			}
		}
	}
	if n := len(s.apps); n != len(apps) {
		t.Errorf("suite holds %d application cells, want %d", n, len(apps))
	}
}
