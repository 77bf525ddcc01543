package sim

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

func TestSetAssociativityEliminatesPingPong(t *testing.T) {
	// Blocks 0 and 2 collide in a 64-byte direct-mapped cache (2 sets).
	// A thread alternating between them thrashes; a 2-way cache holds
	// both after the compulsory misses.
	a := trace.SharedBase
	b := trace.SharedBase + 2*DefaultLineSize
	var evs []trace.Event
	for i := 0; i < 20; i++ {
		evs = append(evs, trace.Event{Kind: trace.Read, Addr: a}, trace.Event{Kind: trace.Read, Addr: b})
	}
	tr := mkTrace(evs)

	direct := DefaultConfig(1)
	direct.CacheSize = 64
	res, err := Run(tr, Spec{Config: direct, Placement: mkPlacement([]int{0})})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Procs[0].Misses[ConflictIntra]; got < 30 {
		t.Errorf("direct-mapped: %d intra conflicts, want thrashing (>= 30)", got)
	}

	assoc := direct
	assoc.Associativity = 2
	res, err = runChecked(tr, mkPlacement([]int{0}), assoc, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Procs[0]
	if p.TotalMisses() != 2 {
		t.Errorf("2-way: misses = %d (%+v), want 2 compulsory only", p.TotalMisses(), p.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.CacheSize = 64
	cfg.Associativity = 2 // one set, two ways
	c := newCache(cfg)
	c.fill(10, shared, 0)
	c.fill(20, shared, 0)
	// Touch 10 so 20 becomes LRU.
	if c.lookup(10) != shared {
		t.Fatal("block 10 missing")
	}
	victim, _, evicted := c.fill(30, shared, 0)
	if !evicted || victim != 20 {
		t.Errorf("evicted %v/%d, want block 20 (LRU)", evicted, victim)
	}
	if c.lookup(10) != shared || c.lookup(30) != shared || c.lookup(20) != invalid {
		t.Error("post-eviction residency wrong")
	}
}

func TestAssociativityConfigValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Associativity = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative associativity accepted")
	}
	cfg = DefaultConfig(1)
	cfg.CacheSize = 96 // not a multiple of 32*4
	cfg.Associativity = 4
	if err := cfg.Validate(); err == nil {
		t.Error("cache size not multiple of set size accepted")
	}
	cfg = DefaultConfig(1)
	cfg.Associativity = 4
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid 4-way config rejected: %v", err)
	}
	cfg.MaxContexts = -2
	if err := cfg.Validate(); err == nil {
		t.Error("negative context cap accepted")
	}
}

func TestAssociativeProtocolInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := trace.New("rnd", 6)
	for i := 0; i < 6; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < 2000; j++ {
			r.Compute(rng.Intn(4))
			addr := sh(rng.Intn(1500))
			if rng.Intn(3) == 0 {
				r.Store(addr)
			} else {
				r.Load(addr)
			}
		}
	}
	cfg := DefaultConfig(3)
	cfg.CacheSize = 4 << 10
	cfg.Associativity = 4
	if _, err := runChecked(tr, mkPlacement([]int{0, 1}, []int{2, 3}, []int{4, 5}), cfg, 500); err != nil {
		t.Fatal(err)
	}
}

func TestMaxContextsSerializes(t *testing.T) {
	// Four threads on one processor with a single hardware context must
	// run strictly one after another.
	mk := func(base int) []trace.Event {
		var evs []trace.Event
		for i := 0; i < 10; i++ {
			evs = append(evs, trace.Event{Gap: 5, Kind: trace.Read, Addr: shBlock(base + i)})
		}
		return evs
	}
	tr := mkTrace(mk(0), mk(100), mk(200), mk(300))
	pl := mkPlacement([]int{0, 1, 2, 3})

	one := DefaultConfig(1)
	one.MaxContexts = 1
	serial, err := runChecked(tr, pl, one, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Threads finish in placement order.
	for i := 1; i < 4; i++ {
		if serial.ThreadFinish[i] <= serial.ThreadFinish[i-1] {
			t.Errorf("thread %d finished at %d, before thread %d at %d",
				i, serial.ThreadFinish[i], i-1, serial.ThreadFinish[i-1])
		}
	}
	// The first thread must fully complete before the second starts:
	// with 10 all-miss refs the first finishes at ~10*55; the second
	// can only finish after roughly double that.
	if serial.ThreadFinish[1] < serial.ThreadFinish[0]+400 {
		t.Errorf("thread 1 overlapped thread 0: finishes %d vs %d",
			serial.ThreadFinish[1], serial.ThreadFinish[0])
	}

	multi := DefaultConfig(1)
	parallel, err := Run(tr, Spec{Config: multi, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	if parallel.ExecTime >= serial.ExecTime {
		t.Errorf("unbounded contexts (%d) not faster than single context (%d)",
			parallel.ExecTime, serial.ExecTime)
	}
	// Work totals are identical either way.
	if parallel.Totals().Refs != serial.Totals().Refs {
		t.Error("reference counts differ between context configurations")
	}
}

func TestMaxContextsLargerThanThreadsIsNoop(t *testing.T) {
	tr := mkTrace(
		[]trace.Event{{Kind: trace.Read, Addr: sh(0)}},
		[]trace.Event{{Gap: 9, Kind: trace.Read, Addr: sh(64)}},
	)
	pl := mkPlacement([]int{0, 1})
	capped := DefaultConfig(1)
	capped.MaxContexts = 8
	a, err := Run(tr, Spec{Config: capped, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, Spec{Config: DefaultConfig(1), Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime {
		t.Errorf("cap larger than thread count changed exec time: %d vs %d", a.ExecTime, b.ExecTime)
	}
}
