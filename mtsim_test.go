package mtsim

// Facade tests: the public API exercised end to end, the way a downstream
// user would drive it.

import (
	"testing"
)

func TestFacadePipeline(t *testing.T) {
	tr, err := BuildApp("Barnes-Hut", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	set := Analyze(tr)
	pl, err := Place(set, "SHARE-REFS", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tr, pl, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime == 0 {
		t.Error("zero exec time")
	}
	tot := res.Totals()
	if tot.Refs != tr.TotalRefs() {
		t.Errorf("refs %d != trace refs %d", tot.Refs, tr.TotalRefs())
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := BuildApp("NoSuchApp", DefaultParams()); err == nil {
		t.Error("unknown app accepted")
	}
	tr, err := BuildApp("Topopt", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	set := Analyze(tr)
	if _, err := Place(set, "NOT-AN-ALG", 4, 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := AppByName("nope"); err == nil {
		t.Error("AppByName accepted unknown name")
	}
	if _, err := Simulate(tr, nil, DefaultConfig(4)); err == nil {
		t.Error("Simulate accepted a nil placement")
	}
}

func TestFacadeApplicationsAndAlgorithms(t *testing.T) {
	if len(Applications()) != 14 {
		t.Errorf("%d applications, want 14", len(Applications()))
	}
	if len(Algorithms()) != 14 {
		t.Errorf("%d algorithms, want 14", len(Algorithms()))
	}
}

func TestFacadeCustomTrace(t *testing.T) {
	tr := NewTrace("custom", 2)
	for i := 0; i < 2; i++ {
		r := NewRecorder(tr, i)
		for j := 0; j < 50; j++ {
			r.Compute(3)
			r.Load(SharedBase + uint64(j%16)*8)
		}
		r.Store(uint64(i+1) << 20)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	set := Analyze(tr)
	pl, err := Place(set, "LOAD-BAL", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tr, pl, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals().SharedRefs != 100 {
		t.Errorf("shared refs = %d, want 100", res.Totals().SharedRefs)
	}
}

func TestFacadeSynthetic(t *testing.T) {
	spec := DefaultSyntheticSpec()
	spec.Threads = 8
	spec.WorkUnits = 100
	app, err := Synthetic(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := app.Build(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumThreads() != 8 {
		t.Errorf("threads = %d", tr.NumThreads())
	}
	spec.Uniformity = 7
	if _, err := Synthetic(spec); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestFacadeKLShare(t *testing.T) {
	tr, err := BuildApp("Topopt", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	set := Analyze(tr)
	pl, err := KLShare(set, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(tr.NumThreads(), 4); err != nil {
		t.Error(err)
	}
	if pl.Algorithm != "KL-SHARE" {
		t.Errorf("algorithm = %q", pl.Algorithm)
	}
}

func TestFacadeAnalysisExtensions(t *testing.T) {
	tr, err := BuildApp("Gauss", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	set := Analyze(tr)
	fs := set.DefaultFalseSharing()
	// The paper: its programs have little false sharing. Ours are laid
	// out the same way.
	if pct := fs.FalseOnlyRefsPct(); pct > 8 {
		t.Errorf("Gauss false-sharing refs = %.1f%%, want small", pct)
	}
	c := set.Characteristics(nil)
	if c.Threads != 127 {
		t.Errorf("threads = %d", c.Threads)
	}
}

func TestFacadeWriteRunsAndModel(t *testing.T) {
	tr, err := BuildApp("FFT", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	set := Analyze(tr)
	pl, err := Place(set, "LOAD-BAL", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(8)
	cfg.TrackWriteRuns = true
	res, err := Simulate(tr, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteRuns == nil || res.WriteRuns.WrittenBlocks == 0 {
		t.Fatal("write runs not collected through facade")
	}

	m := EfficiencyModel{RunLength: 12, Latency: 50, SwitchCost: 6}
	if e := m.EfficiencyMVA(4); e <= 0 || e > 1 {
		t.Errorf("model efficiency = %v", e)
	}
}

func TestFacadeSuite(t *testing.T) {
	opts := DefaultOptions()
	opts.ProcCounts = []int{2}
	s := NewSuite(opts)
	res, err := s.RunOne("Grav", "RANDOM", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "RANDOM" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
}
