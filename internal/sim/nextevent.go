package sim

// The fast engine's event queue. A processor never has more than one
// pending action (issue its running context's reference, or wake from
// idle), so the queue is one next-event time per processor: a P-slot
// array where the reference engine keeps a container/heap of events with
// per-processor sequence numbers to skip superseded entries.
//
//   - Scheduling overwrites the processor's slot. The latest push wins,
//     which is what the reference's seq check achieves by skipping every
//     older entry — including the pending wake an online boundary
//     replaces.
//   - The earliest event is a min-scan in index order. Ties go to the
//     lowest processor index, the reference heap's (time, proc) order.
//
// The scan beats the heap it replaced even at 64 processors. A tournament
// tree would pay off there, but not at the paper's 2 to 16 processors,
// where its per-event path update costs as much as the scan.

// noEvent marks a processor with no pending event. Simulated time never
// reaches it: a run would overflow 64-bit cycle counts first.
const noEvent = ^uint64(0)

// earliest returns the processor with the earliest pending event and
// that event's time, or -1 when no event is pending. Ties go to the lower
// processor index, the reference heap's (time, proc) order.
//
//mtlint:hotpath
func (m *fastMachine) earliest() (int, uint64) {
	pid, t := -1, noEvent
	for i, nt := range m.next {
		if nt < t {
			pid, t = i, nt
		}
	}
	return pid, t
}

// pending counts the processors with a pending event: the queue depth
// reported to probes and in a BudgetError.
//
//mtlint:hotpath
func (m *fastMachine) pending() int {
	n := 0
	for _, t := range m.next {
		if t != noEvent {
			n++
		}
	}
	return n
}

// push schedules the processor's next action, replacing any pending one.
//
//mtlint:hotpath
func (m *fastMachine) push(t uint64, p *fastProc) {
	m.next[p.id] = t
}
