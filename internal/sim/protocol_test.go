package sim

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// pingPongTrace builds two threads alternately writing one shared block.
func pingPongTrace(writesEach int) *trace.Trace {
	x := shBlock(0)
	var t0, t1 []trace.Event
	for i := 0; i < writesEach; i++ {
		t0 = append(t0, trace.Event{Gap: 100, Kind: trace.Write, Addr: x})
		t1 = append(t1, trace.Event{Gap: 100, Kind: trace.Write, Addr: x})
	}
	return mkTrace(t0, t1)
}

func TestUpdateProtocolEliminatesInvalidations(t *testing.T) {
	tr := pingPongTrace(20)
	pl := mkPlacement([]int{0}, []int{1})

	inv := DefaultConfig(2)
	invRes, err := runChecked(tr, pl, inv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if invRes.Totals().InvalidationsSent == 0 {
		t.Fatal("invalidate protocol sent no invalidations on a ping-pong")
	}

	upd := DefaultConfig(2)
	upd.Protocol = Update
	updRes, err := runChecked(tr, pl, upd, 1)
	if err != nil {
		t.Fatal(err)
	}
	tot := updRes.Totals()
	if tot.InvalidationsSent != 0 || tot.Misses[InvalidationMiss] != 0 {
		t.Errorf("update protocol produced invalidations: %+v", tot)
	}
	if tot.UpdatesSent == 0 || tot.UpdatesSent != tot.UpdatesReceived {
		t.Errorf("updates sent/received = %d/%d", tot.UpdatesSent, tot.UpdatesReceived)
	}
	if tot.Writebacks != 0 {
		t.Errorf("update protocol wrote back %d dirty lines; memory is always current", tot.Writebacks)
	}
	// Ping-pong data is where update protocols win: after each side's
	// compulsory miss every write hits.
	if updRes.ExecTime >= invRes.ExecTime {
		t.Errorf("update exec %d not below invalidate exec %d on ping-pong data",
			updRes.ExecTime, invRes.ExecTime)
	}
}

func TestUpdateProtocolInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tr := trace.New("rnd", 6)
	for i := 0; i < 6; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < 2000; j++ {
			r.Compute(rng.Intn(4))
			addr := sh(rng.Intn(1200))
			if rng.Intn(3) == 0 {
				r.Store(addr)
			} else {
				r.Load(addr)
			}
		}
	}
	cfg := DefaultConfig(3)
	cfg.Protocol = Update
	cfg.CacheSize = 4 << 10
	res, err := runChecked(tr, mkPlacement([]int{0, 1}, []int{2, 3}, []int{4, 5}), cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Totals()
	if tot.Refs != tr.TotalRefs() || tot.Busy != tr.TotalInstructions() {
		t.Error("conservation broken under update protocol")
	}
}

func TestProtocolString(t *testing.T) {
	if Invalidate.String() != "invalidate" || Update.String() != "update" {
		t.Error("protocol names wrong")
	}
	cfg := DefaultConfig(1)
	cfg.Protocol = Protocol(9)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestNetworkContentionAddsWait(t *testing.T) {
	// Eight threads on eight processors, all missing constantly: with a
	// single channel every transaction serializes.
	var threads [][]trace.Event
	for i := 0; i < 8; i++ {
		var evs []trace.Event
		for j := 0; j < 30; j++ {
			evs = append(evs, trace.Event{Kind: trace.Read, Addr: shBlock(i*1000 + j)})
		}
		threads = append(threads, evs)
	}
	tr := mkTrace(threads...)
	var clusters [][]int
	for i := 0; i < 8; i++ {
		clusters = append(clusters, []int{i})
	}
	pl := mkPlacement(clusters...)

	free, err := Run(tr, Spec{Config: DefaultConfig(8), Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(8)
	cfg.NetworkChannels = 1
	cfg.NetworkOccupancy = 16
	congested, err := Run(tr, Spec{Config: cfg, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	if congested.Totals().NetworkWait == 0 {
		t.Fatal("single-channel network recorded no queueing")
	}
	if congested.ExecTime <= free.ExecTime {
		t.Errorf("contention did not slow execution: %d vs %d", congested.ExecTime, free.ExecTime)
	}
	if free.Totals().NetworkWait != 0 {
		t.Error("uncontended run recorded network wait")
	}

	// Plenty of channels: close to the uncontended time.
	cfg.NetworkChannels = 64
	wide, err := Run(tr, Spec{Config: cfg, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	if wide.ExecTime > free.ExecTime+free.ExecTime/10 {
		t.Errorf("64 channels still slow: %d vs %d", wide.ExecTime, free.ExecTime)
	}
}

func TestNetworkChannelsValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.NetworkChannels = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative channels accepted")
	}
}

func TestContentionDeterministic(t *testing.T) {
	tr := pingPongTrace(50)
	pl := mkPlacement([]int{0}, []int{1})
	cfg := DefaultConfig(2)
	cfg.NetworkChannels = 2
	a, err := Run(tr, Spec{Config: cfg, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, Spec{Config: cfg, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime || a.Totals().NetworkWait != b.Totals().NetworkWait {
		t.Error("contended simulation not deterministic")
	}
}
