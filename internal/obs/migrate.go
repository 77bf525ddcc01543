package obs

import "fmt"

// Migration events: online adaptive placement (sim.Run with Spec.Online)
// reports every applied thread migration through the probe plumbing, so
// a timeline or counter view of an online run shows when and where the
// placement changed. Migrations happen only at detection boundaries —
// none of the emission sites sit on the per-event hot loop.

// MigrateMark is one thread migration observed during a run.
type MigrateMark struct {
	T      uint64 `json:"t"`
	Thread int    `json:"thread"`
	From   int    `json:"from"`
	To     int    `json:"to"`
}

// maxMigrateMarks bounds the per-run migration list kept by a Sampler; a
// run migrating more than this is thrashing, and the aggregate counters
// still record every move.
const maxMigrateMarks = 1024

// Migrate implements Probe.
func (m multi) Migrate(t uint64, thread, from, to int) {
	for _, p := range m {
		p.Migrate(t, thread, from, to)
	}
}

// Migrate implements Probe.
func (c *Counter) Migrate(t uint64, thread, from, to int) { c.Migrations++ }

// Migrate implements Probe. Like faults, migrations are not windowed:
// they are rare boundary-level events kept in a bounded side list (see
// Sampler.Migrations) instead of churning the Sample CSV schema.
func (s *Sampler) Migrate(t uint64, thread, from, to int) {
	if len(s.migrations) >= maxMigrateMarks {
		s.migrationsDropped++
		return
	}
	s.migrations = append(s.migrations, MigrateMark{T: t, Thread: thread, From: from, To: to})
}

// Migrations returns the bounded list of migration marks observed, and
// how many further marks were dropped at the cap.
func (s *Sampler) Migrations() ([]MigrateMark, int) {
	return append([]MigrateMark(nil), s.migrations...), s.migrationsDropped
}

// Migrate implements Probe. The marker lands on the destination
// processor's row so the timeline shows where the thread arrived.
func (tr *Tracer) Migrate(t uint64, thread, from, to int) {
	tr.events = append(tr.events, traceEvent{
		Name: fmt.Sprintf("migrate:t%d:p%d->p%d", thread, from, to),
		Cat:  "placement", Ph: "i", Ts: t,
		Pid: to, Tid: 0, S: "p",
	})
}
