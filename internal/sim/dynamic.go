package sim

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/placement"
	"repro/internal/trace"
)

// Dynamic scheduling: an extension beyond the paper's static placements.
// The paper's RANDOM baseline is "what a low-overhead runtime scheduler
// would adopt, given no a priori application knowledge" — but a real
// runtime scheduler is *online*: it hands the next waiting thread to
// whichever processor frees a context first, load-balancing without any
// static analysis. Run with a nil Spec.Placement simulates that
// discipline, bounding what static LOAD-BAL's oracle knowledge (exact
// thread lengths) is worth.

// SchedulePolicy orders the dynamic scheduler's ready queue.
type SchedulePolicy int

const (
	// FIFO hands out threads in creation order.
	FIFO SchedulePolicy = iota
	// LongestFirst hands out the longest remaining thread first (online
	// LPT — needs thread lengths, but no sharing analysis).
	LongestFirst
)

// String names the policy.
func (p SchedulePolicy) String() string {
	if p == LongestFirst {
		return "longest-first"
	}
	return "fifo"
}

// dynamicLayout validates a dynamic run and lays it out in policy order:
// pl seeds each processor with its initial contexts, and full is pl with
// the rest of the threads, the global ready queue, appended to processor
// 0's cluster.
func dynamicLayout(tr *trace.Trace, cfg Config, policy SchedulePolicy) (pl, full *placement.Placement, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	n := tr.NumThreads()
	perProc := cfg.MaxContexts
	if perProc <= 0 {
		perProc = 1
	}
	if cfg.Processors*perProc > n {
		return nil, nil, fmt.Errorf("sim: dynamic run needs at least %d threads to seed %d processors x %d contexts, got %d",
			cfg.Processors*perProc, cfg.Processors, perProc, n)
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if policy == LongestFirst {
		sort.SliceStable(order, func(a, b int) bool {
			la, lb := tr.Threads[order[a]].Instructions(), tr.Threads[order[b]].Instructions()
			if la != lb {
				return la > lb
			}
			return order[a] < order[b]
		})
	}

	pl = &placement.Placement{
		Algorithm: "DYNAMIC/" + policy.String(),
		Clusters:  make([][]int, cfg.Processors),
	}
	for q := range pl.Clusters {
		pl.Clusters[q] = order[q*perProc : (q+1)*perProc : (q+1)*perProc]
	}
	full = &placement.Placement{Algorithm: pl.Algorithm, Clusters: append([][]int(nil), pl.Clusters...)}
	full.Clusters[0] = append(full.Clusters[0], order[cfg.Processors*perProc:]...)
	return pl, full, nil
}

// detachQueue moves the threads loaded on processor 0 past its first
// seeded contexts into the global queue.
func (m *machine) detachQueue(seeded int) {
	p0 := m.procs[0]
	for _, c := range p0.ctxs[seeded:] {
		if c.state == ctxDone {
			// Empty thread: leave it accounted as done on p0.
			continue
		}
		c.state = ctxUnloaded
		m.dynQueue = append(m.dynQueue, dynThread{thread: c.thread, cur: c.cur, pending: c.pending})
	}
	p0.ctxs = p0.ctxs[:seeded]
	p0.nextLoad = len(p0.ctxs)
	p0.rr = len(p0.ctxs) - 1
	m.dynamic = true
}

// detachQueue is the fast engine's mirror of the reference detachQueue.
// It also reserves room for the whole queue in every processor's context
// slab, so pullDynamic never moves a slab mid-run.
func (m *fastMachine) detachQueue(seeded int) {
	p0 := &m.procs[0]
	for _, c := range p0.ctxs[seeded:] {
		if c.state == ctxDone {
			continue
		}
		m.dynQueue = append(m.dynQueue, dynThread{thread: c.thread, cur: c.cur, pending: c.pending})
	}
	p0.ctxs = p0.ctxs[:seeded]
	p0.nextLoad = len(p0.ctxs)
	p0.rr = len(p0.ctxs) - 1
	for i := range m.procs {
		p := &m.procs[i]
		if want := len(p.ctxs) + len(m.dynQueue); cap(p.ctxs) < want {
			slab := make([]context, len(p.ctxs), want)
			copy(slab, p.ctxs)
			p.ctxs = slab
		}
	}
}

// dynThread is a thread waiting in the dynamic scheduler's global queue.
type dynThread struct {
	thread  int
	cur     *trace.Cursor
	pending trace.Event
}

// ---- mid-run checkpoint/restore ----
//
// An OnlineCheckpoint is the engine's mid-run hand-off unit: the
// placement advisor (internal/advise, /v1/advise) consumes it, and a
// paused online run can be resumed from it. The binary encoding is
// deterministic — field order is fixed, matrices are row-major — so a
// round-trip is byte-identical (asserted in the online test suite).

// ckMagic frames an encoded OnlineCheckpoint ("MTC1": multithreaded
// checkpoint, version 1).
const ckMagic = "MTC1"

// maxCheckpointThreads bounds untrusted decode allocations.
const maxCheckpointThreads = 1 << 16

// EncodeOnlineCheckpoint serializes ck deterministically.
func EncodeOnlineCheckpoint(ck *OnlineCheckpoint) []byte {
	n := len(ck.Assign)
	buf := make([]byte, 0, 4+8+8+8+8*n+2*8*n*n)
	buf = append(buf, ckMagic...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(ck.Epoch))
	buf = binary.BigEndian.AppendUint64(buf, ck.Cycle)
	buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	for _, p := range ck.Assign {
		buf = binary.BigEndian.AppendUint64(buf, uint64(int64(p)))
	}
	for _, m := range [][][]uint64{ck.Pair, ck.EpochPair} {
		for _, row := range m {
			for _, v := range row {
				buf = binary.BigEndian.AppendUint64(buf, v)
			}
		}
	}
	return buf
}

// DecodeOnlineCheckpoint parses an EncodeOnlineCheckpoint payload,
// rejecting truncation, trailing bytes and oversized thread counts.
func DecodeOnlineCheckpoint(b []byte) (*OnlineCheckpoint, error) {
	if len(b) < 4 || string(b[:4]) != ckMagic {
		return nil, fmt.Errorf("sim: checkpoint: bad magic")
	}
	b = b[4:]
	take := func() (uint64, error) {
		if len(b) < 8 {
			return 0, fmt.Errorf("sim: checkpoint: truncated")
		}
		v := binary.BigEndian.Uint64(b)
		b = b[8:]
		return v, nil
	}
	epoch, err := take()
	if err != nil {
		return nil, err
	}
	cycle, err := take()
	if err != nil {
		return nil, err
	}
	n64, err := take()
	if err != nil {
		return nil, err
	}
	if n64 > maxCheckpointThreads {
		return nil, fmt.Errorf("sim: checkpoint: %d threads exceeds limit %d", n64, maxCheckpointThreads)
	}
	n := int(n64)
	if want := 8*n + 2*8*n*n; len(b) != want {
		return nil, fmt.Errorf("sim: checkpoint: body is %d bytes, want %d", len(b), want)
	}
	ck := &OnlineCheckpoint{Epoch: int(epoch), Cycle: cycle, Assign: make([]int, n)}
	for i := range ck.Assign {
		v, _ := take()
		ck.Assign[i] = int(int64(v))
	}
	read := func() [][]uint64 {
		m := make([][]uint64, n)
		for i := range m {
			m[i] = make([]uint64, n)
			for j := range m[i] {
				v, _ := take()
				m[i][j] = v
			}
		}
		return m
	}
	ck.Pair = read()
	ck.EpochPair = read()
	return ck, nil
}

// pullDynamic hands the processor the next queued thread, if any,
// installing it in a fresh hardware context.
func (m *machine) pullDynamic(p *proc) bool {
	if len(m.dynQueue) == 0 {
		return false
	}
	dt := m.dynQueue[0]
	m.dynQueue = m.dynQueue[1:]
	c := &context{
		idx:     int32(len(p.ctxs)),
		thread:  dt.thread,
		cur:     dt.cur,
		pending: dt.pending,
		state:   ctxReady,
	}
	p.ctxs = append(p.ctxs, c)
	p.nextLoad = len(p.ctxs)
	return true
}
