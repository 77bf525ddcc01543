package sim

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/placement"
	"repro/internal/trace"
)

// randWorkload derives a random synthetic trace, a random valid placement
// and a random (valid) configuration from one seed. It exercises both the
// power-of-two and the modulo set-index paths, associative and
// direct-mapped caches, both protocols, context caps, contention and
// write-run tracking.
func randWorkload(rng *rand.Rand) (*trace.Trace, *placement.Placement, Config) {
	threads := 1 + rng.Intn(6)
	tr := trace.New("quick", threads)
	for i := 0; i < threads; i++ {
		r := trace.NewRecorder(tr, i)
		refs := rng.Intn(400) // zero is legal: the engine must cope with empty threads
		for j := 0; j < refs; j++ {
			r.Compute(rng.Intn(6))
			var addr uint64
			if rng.Intn(3) == 0 {
				addr = uint64(i*4096+rng.Intn(64)) * trace.WordSize // private
			} else {
				addr = trace.SharedBase + uint64(rng.Intn(256))*trace.WordSize
			}
			if rng.Intn(3) == 0 {
				r.Store(addr)
			} else {
				r.Load(addr)
			}
		}
	}

	procs := 1 + rng.Intn(threads)
	clusters := make([][]int, procs)
	perm := rng.Perm(threads)
	// One thread per cluster first (empty clusters are invalid), the rest
	// wherever the dice land.
	for q := 0; q < procs; q++ {
		clusters[q] = []int{perm[q]}
	}
	for _, tid := range perm[procs:] {
		q := rng.Intn(procs)
		clusters[q] = append(clusters[q], tid)
	}
	pl := &placement.Placement{Algorithm: "QUICK", Clusters: clusters}

	cfg := DefaultConfig(procs)
	ways := rng.Intn(3) // 0 = direct-mapped
	cfg.Associativity = ways
	if ways == 0 {
		ways = 1
	}
	// nsets 3 and 100 exercise the modulo fallback; the rest the mask path.
	nsets := []int{1, 2, 3, 8, 100, 256}[rng.Intn(6)]
	cfg.CacheSize = DefaultLineSize * ways * nsets
	cfg.MaxContexts = rng.Intn(3)
	if rng.Intn(4) == 0 {
		cfg.Protocol = Update
	}
	if rng.Intn(4) == 0 {
		cfg.NetworkChannels = 1 + rng.Intn(3)
	}
	cfg.TrackWriteRuns = rng.Intn(2) == 0
	if rng.Intn(8) == 0 {
		cfg.InfiniteCache = true
	}
	cfg.MemLatency = []uint64{1, 13, 50}[rng.Intn(3)]
	cfg.SwitchCycles = uint64(rng.Intn(8))
	return tr, pl, cfg
}

// TestQuickEnginesAgree is the core property: for random synthetic
// workloads, random valid placements and random configurations, the fast
// engine's Result is bit-identical to the reference engine's, and
// deterministic across runs (same seed => identical Result).
func TestQuickEnginesAgree(t *testing.T) {
	prop := func(seed int64) bool {
		tr, pl, cfg := randWorkload(rand.New(rand.NewSource(seed)))
		ref, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: ReferenceEngine})
		if err != nil {
			t.Logf("seed %d: reference engine error: %v", seed, err)
			return false
		}
		fast, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: FastEngine})
		if err != nil {
			t.Logf("seed %d: fast engine error: %v", seed, err)
			return false
		}
		again, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: FastEngine})
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(ref, fast) {
			t.Logf("seed %d: engines diverge: ref exec %d vs fast exec %d", seed, ref.ExecTime, fast.ExecTime)
			return false
		}
		if !reflect.DeepEqual(fast, again) {
			t.Logf("seed %d: fast engine not deterministic", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNextEventOrder: the fast engine's next-event array pops
// processors in exactly the order the reference engine's eventHeap does,
// seq-based stale skipping included. Random schedules cover up to 64
// processors, processors rescheduling themselves after each pop, and
// pending events overwritten by a later push (as an online boundary
// replaces a pending wake); narrow time ranges force plenty of
// (time, proc) ties.
func TestQuickNextEventOrder(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		procs := 1 + rng.Intn(64)
		m := &fastMachine{procs: make([]fastProc, procs), next: make([]uint64, procs)}
		seqs := make([]uint64, procs)
		var ref eventHeap
		push := func(at uint64, pid int) {
			m.push(at, &m.procs[pid])
			seqs[pid]++
			heap.Push(&ref, event{time: at, proc: pid, seq: seqs[pid]})
		}
		for i := range m.procs {
			m.procs[i].id = i
			m.next[i] = noEvent
			if rng.Intn(4) != 0 {
				push(uint64(rng.Intn(8)), i)
			}
		}
		for pops := 0; ; pops++ {
			pid, at := m.earliest()
			var re event
			fresh := false
			for ref.Len() > 0 && !fresh {
				re = heap.Pop(&ref).(event)
				fresh = re.seq == seqs[re.proc]
			}
			if pid < 0 || !fresh {
				if pid >= 0 || fresh {
					t.Logf("seed %d pop %d: array empty %v, reference empty %v", seed, pops, pid < 0, !fresh)
					return false
				}
				return true
			}
			if re.time != at || re.proc != pid {
				t.Logf("seed %d pop %d: array (%d,%d) vs reference (%d,%d)", seed, pops, at, pid, re.time, re.proc)
				return false
			}
			m.next[pid] = noEvent
			if pops < 400 && rng.Intn(8) != 0 {
				push(at+uint64(rng.Intn(4)), pid)
			}
			if pops < 400 && rng.Intn(4) == 0 {
				push(at+uint64(rng.Intn(6)), rng.Intn(procs))
			}
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
