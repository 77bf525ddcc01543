package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// skewedTrace builds threads of strongly unequal lengths.
func skewedTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	tr := trace.New("skewed", n)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		r := trace.NewRecorder(tr, i)
		refs := 20 + rng.Intn(50)
		if i%7 == 0 {
			refs *= 10
		}
		for j := 0; j < refs; j++ {
			r.Compute(8)
			r.Load(trace.SharedBase + uint64((i*1000+j%200))*DefaultLineSize)
		}
	}
	return tr
}

func TestDynamicSchedulingCompletesAllThreads(t *testing.T) {
	tr := skewedTrace(t, 24)
	cfg := DefaultConfig(4)
	cfg.MaxContexts = 2
	res, err := Run(tr, Spec{Config: cfg, Schedule: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Totals()
	if tot.Refs != tr.TotalRefs() {
		t.Errorf("refs = %d, want %d", tot.Refs, tr.TotalRefs())
	}
	if tot.Busy != tr.TotalInstructions() {
		t.Errorf("busy = %d, want %d", tot.Busy, tr.TotalInstructions())
	}
	for tid, f := range res.ThreadFinish {
		if f == 0 {
			t.Errorf("thread %d never finished", tid)
		}
	}
	if res.Algorithm != "DYNAMIC/fifo" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
}

func TestDynamicBalancesLoadOnline(t *testing.T) {
	tr := skewedTrace(t, 24)
	cfg := DefaultConfig(4)
	cfg.MaxContexts = 2

	dyn, err := Run(tr, Spec{Config: cfg, Schedule: LongestFirst})
	if err != nil {
		t.Fatal(err)
	}

	// A deliberately bad static placement: all four long threads
	// (IDs 0, 7, 14, 21) on one processor.
	clusters := [][]int{
		{0, 7, 14, 21, 1, 2},
		{3, 4, 5, 6, 8, 9},
		{10, 11, 12, 13, 15, 16},
		{17, 18, 19, 20, 22, 23},
	}
	static, err := Run(tr, Spec{Config: DefaultConfig(4), Placement: mkPlacement(clusters...)})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.ExecTime >= static.ExecTime {
		t.Errorf("dynamic scheduling (%d) not faster than a bad static placement (%d)",
			dyn.ExecTime, static.ExecTime)
	}
}

func TestDynamicPoliciesDiffer(t *testing.T) {
	tr := skewedTrace(t, 24)
	cfg := DefaultConfig(4)
	fifo, err := Run(tr, Spec{Config: cfg, Schedule: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	lpt, err := Run(tr, Spec{Config: cfg, Schedule: LongestFirst})
	if err != nil {
		t.Fatal(err)
	}
	// Longest-first dispatches the giants early; it must not lose badly
	// to FIFO on a skewed workload.
	if float64(lpt.ExecTime) > 1.2*float64(fifo.ExecTime) {
		t.Errorf("longest-first (%d) much slower than FIFO (%d)", lpt.ExecTime, fifo.ExecTime)
	}
}

func TestDynamicDeterministic(t *testing.T) {
	tr := skewedTrace(t, 24)
	cfg := DefaultConfig(4)
	cfg.MaxContexts = 2
	a, err := Run(tr, Spec{Config: cfg, Schedule: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, Spec{Config: cfg, Schedule: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime {
		t.Error("dynamic run not deterministic")
	}
}

// TestDynamicDefaultsNetworkOccupancy: a dynamic run with network
// channels and no occupancy must model the default occupancy, exactly as
// a static run does, on both engines.
func TestDynamicDefaultsNetworkOccupancy(t *testing.T) {
	tr := skewedTrace(t, 8)
	implicit := DefaultConfig(2)
	implicit.NetworkChannels = 1
	explicit := implicit
	explicit.NetworkOccupancy = DefaultNetworkOccupancy
	for _, eng := range []Engine{FastEngine, ReferenceEngine} {
		got, err := Run(tr, Spec{Config: implicit, Schedule: FIFO, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(tr, Spec{Config: explicit, Schedule: FIFO, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: zero occupancy ran as %d cycles (occupancy %d), default as %d",
				eng, got.ExecTime, got.Config.NetworkOccupancy, want.ExecTime)
		}
	}
}

func TestDynamicErrors(t *testing.T) {
	tr := skewedTrace(t, 4)
	cfg := DefaultConfig(8) // 8 seeds needed, only 4 threads
	if _, err := Run(tr, Spec{Config: cfg, Schedule: FIFO}); err == nil {
		t.Error("under-seeded dynamic run accepted")
	}
	if _, err := Run(tr, Spec{Config: Config{}, Schedule: FIFO}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Run(tr, Spec{Config: DefaultConfig(2), Engine: Engine(7)}); err == nil {
		t.Error("dynamic run on an unknown engine accepted")
	}
	online := OnlineOptions{Interval: 100, Policy: keepPolicy{}}
	for _, eng := range []Engine{FastEngine, ReferenceEngine} {
		if _, err := Run(tr, Spec{Config: DefaultConfig(2), Online: online, Engine: eng}); err == nil {
			t.Errorf("online run without a seed placement accepted on the %s engine", eng)
		}
	}
}

func TestSchedulePolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || LongestFirst.String() != "longest-first" {
		t.Error("policy names wrong")
	}
}
