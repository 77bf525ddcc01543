package resilience

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

func guardCell() (*trace.Trace, *placement.Placement, sim.Config) {
	rng := rand.New(rand.NewSource(7))
	tr := trace.New("cell", 4)
	for i := 0; i < 4; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < 150; j++ {
			r.Compute(rng.Intn(4))
			addr := trace.SharedBase + uint64(rng.Intn(48))*trace.WordSize
			if rng.Intn(3) == 0 {
				r.Store(addr)
			} else {
				r.Load(addr)
			}
		}
	}
	pl := &placement.Placement{Algorithm: "TEST", Clusters: [][]int{{0, 1}, {2, 3}}}
	return tr, pl, sim.DefaultConfig(2)
}

func TestEngineGuardHealthy(t *testing.T) {
	tr, pl, cfg := guardCell()
	want, err := sim.Run(tr, sim.Spec{Config: cfg, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	g := &EngineGuard{SampleEvery: 2}
	for i := 0; i < 6; i++ {
		got, err := g.Run(tr, sim.Spec{Config: cfg, Placement: pl})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: guarded result differs from plain run", i)
		}
	}
	if g.Degraded() {
		t.Error("healthy engines tripped the guard")
	}
	if g.Report() != nil {
		t.Error("healthy guard carries a report")
	}
	runs, checks := g.Stats()
	if runs != 6 || checks != 3 {
		t.Errorf("runs/checks = %d/%d, want 6/3", runs, checks)
	}
}

func TestEngineGuardCatchesBrokenFastEngine(t *testing.T) {
	tr, pl, cfg := guardCell()
	want, err := sim.Run(tr, sim.Spec{Config: cfg, Placement: pl, Engine: sim.ReferenceEngine})
	if err != nil {
		t.Fatal(err)
	}

	prev := sim.SetFastEngineFault(func(r *sim.Result) { r.ExecTime += 7 })
	defer sim.SetFastEngineFault(prev)

	var fallbacks []DivergenceReport
	probe := &obs.Counter{}
	g := &EngineGuard{
		SampleEvery: 1,
		Probe:       probe,
		OnFallback:  func(rep DivergenceReport) { fallbacks = append(fallbacks, rep) },
	}

	// First run: divergence detected, reference result returned.
	got, err := g.Run(tr, sim.Spec{Config: cfg, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("divergent run did not return the reference result")
	}
	if !g.Degraded() {
		t.Fatal("divergence did not trip the guard")
	}
	rep := g.Report()
	if rep == nil {
		t.Fatal("no divergence report")
	}
	if rep.App != "cell" || rep.FastExec != want.ExecTime+7 || rep.RefExec != want.ExecTime {
		t.Errorf("report %+v does not describe the divergence", rep)
	}
	if rep.Detail != "execution times differ" {
		t.Errorf("detail = %q", rep.Detail)
	}
	if len(fallbacks) != 1 {
		t.Fatalf("OnFallback fired %d times, want 1", len(fallbacks))
	}
	if rep.String() == "" {
		t.Error("empty report rendering")
	}
	if probe.Faults[obs.FaultDivergence] != 1 || probe.Faults[obs.FaultFallback] != 1 {
		t.Errorf("probe fault counts: %v", probe.Faults)
	}

	// Subsequent runs complete on the reference engine — correct results
	// despite the still-broken fast engine, and no second fallback.
	for i := 0; i < 3; i++ {
		got, err := g.Run(tr, sim.Spec{Config: cfg, Placement: pl})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("degraded run %d returned wrong result", i)
		}
	}
	if len(fallbacks) != 1 {
		t.Errorf("OnFallback fired %d times after degradation", len(fallbacks))
	}
}

// TestEngineGuardUnsampledMiss documents the sampling contract: a broken
// fast engine is only caught on sampled runs; between samples its results
// pass through. (This is the price of <2% overhead; SampleEvery tunes it.)
func TestEngineGuardSamplingSkipsUnsampled(t *testing.T) {
	tr, pl, cfg := guardCell()
	prev := sim.SetFastEngineFault(func(r *sim.Result) { r.ExecTime += 7 })
	defer sim.SetFastEngineFault(prev)

	g := &EngineGuard{SampleEvery: 3}
	for i := 1; i <= 2; i++ {
		if _, err := g.Run(tr, sim.Spec{Config: cfg, Placement: pl}); err != nil {
			t.Fatal(err)
		}
		if g.Degraded() {
			t.Fatalf("guard tripped on unsampled run %d", i)
		}
	}
	if _, err := g.Run(tr, sim.Spec{Config: cfg, Placement: pl}); err != nil {
		t.Fatal(err)
	}
	if !g.Degraded() {
		t.Error("guard missed the divergence on the sampled third run")
	}
}

func TestEngineGuardConcurrent(t *testing.T) {
	tr, pl, cfg := guardCell()
	prev := sim.SetFastEngineFault(func(r *sim.Result) { r.ExecTime += 7 })
	defer sim.SetFastEngineFault(prev)

	want, err := sim.Run(tr, sim.Spec{Config: cfg, Placement: pl, Engine: sim.ReferenceEngine})
	if err != nil {
		t.Fatal(err)
	}
	var fallbackCount int
	var mu sync.Mutex
	g := &EngineGuard{SampleEvery: 1, OnFallback: func(DivergenceReport) {
		mu.Lock()
		fallbackCount++
		mu.Unlock()
	}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := g.Run(tr, sim.Spec{Config: cfg, Placement: pl})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("concurrent guarded run returned non-reference result")
					return
				}
			}
		}()
	}
	wg.Wait()
	if fallbackCount != 1 {
		t.Errorf("OnFallback fired %d times under concurrency, want 1", fallbackCount)
	}
}

// guardRotate migrates every thread one processor right at each
// boundary — enough churn that any cross-engine skew becomes visible.
type guardRotate struct{}

func (guardRotate) Name() string { return "ROTATE" }
func (guardRotate) Decide(ck *sim.OnlineCheckpoint, env sim.OnlineEnv) []int {
	want := make([]int, len(ck.Assign))
	for t, q := range ck.Assign {
		want[t] = q
		if q >= 0 {
			want[t] = (q + 1) % env.Procs
		}
	}
	return want
}

// TestEngineGuardRunOnlineDisabled: zero online options make an online
// cell exactly the static cell — static results, no Online stats, normal
// sampling.
func TestEngineGuardRunOnlineDisabled(t *testing.T) {
	tr, pl, cfg := guardCell()
	want, err := sim.Run(tr, sim.Spec{Config: cfg, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	g := &EngineGuard{SampleEvery: 2}
	for i := 0; i < 4; i++ {
		got, err := g.Run(tr, sim.Spec{Config: cfg, Placement: pl, Online: sim.OnlineOptions{}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Online != nil {
			t.Fatal("disabled online run carries Online stats")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: disabled online run differs from static run", i)
		}
	}
	if runs, checks := g.Stats(); runs != 4 || checks != 2 {
		t.Errorf("runs/checks = %d/%d, want 4/2", runs, checks)
	}
}

// TestEngineGuardRunOnlineHealthy: agreeing engines pass the sampled
// cross-check with migrations in flight.
func TestEngineGuardRunOnlineHealthy(t *testing.T) {
	tr, pl, cfg := guardCell()
	opts := sim.OnlineOptions{Interval: 300, Penalty: 16, Policy: guardRotate{}}
	want, err := sim.Run(tr, sim.Spec{Config: cfg, Placement: pl, Online: opts, Engine: sim.ReferenceEngine})
	if err != nil {
		t.Fatal(err)
	}
	if want.Online == nil || want.Online.Migrations == 0 {
		t.Fatal("workload produced no migrations; test is vacuous")
	}
	g := &EngineGuard{SampleEvery: 1}
	for i := 0; i < 3; i++ {
		got, err := g.Run(tr, sim.Spec{Config: cfg, Placement: pl, Online: opts})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: guarded online result differs from reference", i)
		}
	}
	if g.Degraded() {
		t.Error("agreeing online engines tripped the guard")
	}
}

// TestEngineGuardRunOnlineCatchesFault: a corrupted fast engine is
// benched on an online run and the reference result is served instead.
func TestEngineGuardRunOnlineCatchesFault(t *testing.T) {
	tr, pl, cfg := guardCell()
	opts := sim.OnlineOptions{Interval: 300, Penalty: 16, Policy: guardRotate{}}
	want, err := sim.Run(tr, sim.Spec{Config: cfg, Placement: pl, Online: opts, Engine: sim.ReferenceEngine})
	if err != nil {
		t.Fatal(err)
	}

	prev := sim.SetFastEngineFault(func(r *sim.Result) { r.ExecTime += 7 })
	defer sim.SetFastEngineFault(prev)

	var fallbacks int
	g := &EngineGuard{SampleEvery: 1, OnFallback: func(DivergenceReport) { fallbacks++ }}
	got, err := g.Run(tr, sim.Spec{Config: cfg, Placement: pl, Online: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("divergent online run did not return the reference result")
	}
	if !g.Degraded() || g.Report() == nil {
		t.Fatal("online divergence did not trip the guard")
	}
	// Degraded: later runs (online and static) stay on the reference
	// engine and remain correct despite the broken fast engine.
	got, err = g.Run(tr, sim.Spec{Config: cfg, Placement: pl, Online: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("degraded online run returned wrong result")
	}
	if fallbacks != 1 {
		t.Errorf("OnFallback fired %d times, want 1", fallbacks)
	}
}

func TestEngineGuardWatchdog(t *testing.T) {
	tr, pl, cfg := guardCell()
	budget := sim.Guard{MaxSteps: 20}
	g := &EngineGuard{}
	if _, err := g.Run(tr, sim.Spec{Config: cfg, Placement: pl, Guard: budget}); err == nil {
		t.Fatal("guard's step budget did not abort the run")
	}
	gd := &EngineGuard{}
	if _, err := gd.Run(tr, sim.Spec{Config: cfg, Schedule: sim.FIFO, Guard: budget}); err == nil {
		t.Fatal("guard's step budget did not abort the dynamic run")
	}
}

// TestEngineGuardDynamicCrossCheck: dynamic self-scheduling cells follow
// the static sampling schedule, and a broken fast engine is caught and
// benched on them too.
func TestEngineGuardDynamicCrossCheck(t *testing.T) {
	tr, _, cfg := guardCell()
	want, err := sim.Run(tr, sim.Spec{Config: cfg, Schedule: sim.LongestFirst, Engine: sim.ReferenceEngine})
	if err != nil {
		t.Fatal(err)
	}

	healthy := &EngineGuard{SampleEvery: 2}
	for i := 0; i < 4; i++ {
		got, err := healthy.Run(tr, sim.Spec{Config: cfg, Schedule: sim.LongestFirst})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: guarded dynamic result differs from the reference engine", i)
		}
	}
	if runs, checks := healthy.Stats(); runs != 4 || checks != 2 || healthy.Degraded() {
		t.Errorf("healthy dynamic runs/checks = %d/%d (degraded %v), want 4/2", runs, checks, healthy.Degraded())
	}

	prev := sim.SetFastEngineFault(func(r *sim.Result) { r.ExecTime += 3 })
	defer sim.SetFastEngineFault(prev)
	g := &EngineGuard{SampleEvery: 1}
	got, err := g.Run(tr, sim.Spec{Config: cfg, Schedule: sim.LongestFirst})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("divergent dynamic run did not return the reference result")
	}
	rep := g.Report()
	if !g.Degraded() || rep == nil {
		t.Fatal("dynamic divergence did not trip the guard")
	}
	if rep.Algorithm != "DYNAMIC/longest-first" || rep.FastExec != want.ExecTime+3 {
		t.Errorf("report %+v does not describe the dynamic divergence", rep)
	}
}
