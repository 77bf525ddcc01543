package sim

// MissKind classifies a cache miss the way the paper's cache unit does
// (§3.2): compulsory, intra-thread conflict, inter-thread conflict, and
// invalidation misses. (With a direct-mapped cache, capacity misses fold
// into the conflict categories.)
type MissKind int

const (
	// Compulsory is the first reference to a block by this processor.
	Compulsory MissKind = iota
	// ConflictIntra re-fetches a block the same thread evicted.
	ConflictIntra
	// ConflictInter re-fetches a block a co-located thread evicted.
	ConflictInter
	// InvalidationMiss re-fetches a block a remote write invalidated.
	InvalidationMiss
	numMissKinds
)

// String names the miss kind.
func (k MissKind) String() string {
	switch k {
	case Compulsory:
		return "compulsory"
	case ConflictIntra:
		return "intra-thread conflict"
	case ConflictInter:
		return "inter-thread conflict"
	case InvalidationMiss:
		return "invalidation"
	}
	return "unknown"
}

// ProcStats accumulates one processor's activity.
type ProcStats struct {
	// Busy is cycles spent executing instructions (including cache
	// hits).
	Busy uint64
	// Switch is cycles spent draining the pipeline at blocking
	// transactions.
	Switch uint64
	// Idle is cycles with no ready context.
	Idle uint64
	// Finish is the cycle at which the processor's last context
	// completed.
	Finish uint64
	// Refs is the number of data references issued (retries after a
	// miss are not double counted).
	Refs uint64
	// SharedRefs is the subset of Refs to the shared segment.
	SharedRefs uint64
	// Hits counts references satisfied without a network transaction.
	Hits uint64
	// Misses counts misses by kind.
	Misses [numMissKinds]uint64
	// Upgrades counts writes that hit a Shared line but required remote
	// invalidations (a network transaction that is not a miss).
	Upgrades uint64
	// InvalidationsSent counts invalidation messages this processor's
	// writes caused.
	InvalidationsSent uint64
	// InvalidationsReceived counts lines invalidated in this cache by
	// remote writes.
	InvalidationsReceived uint64
	// Writebacks counts dirty lines written back (evictions and
	// remote-read downgrades).
	Writebacks uint64
	// UpdatesSent counts update messages this processor's writes sent
	// (write-update protocol only).
	UpdatesSent uint64
	// UpdatesReceived counts lines updated in place in this cache by
	// remote writes (write-update protocol only).
	UpdatesReceived uint64
	// NetworkWait is cycles spent queueing for an interconnect channel
	// (only with Config.NetworkChannels set).
	NetworkWait uint64
}

// TotalMisses sums all miss kinds.
func (s *ProcStats) TotalMisses() uint64 {
	var n uint64
	for _, m := range s.Misses {
		n += m
	}
	return n
}

// Result is the outcome of one simulation.
type Result struct {
	// App and Algorithm identify the run.
	App       string
	Algorithm string
	// Config echoes the simulated machine.
	Config Config
	// Procs holds per-processor statistics.
	Procs []ProcStats
	// ExecTime is the paper's figure of merit: the maximum finish time
	// over all processors.
	ExecTime uint64
	// PairTraffic[a][b] counts coherence events caused at processor b's
	// cache by processor a: invalidation messages a→b plus dirty-data
	// fetches a took from b. Symmetrized views are available via
	// PairTrafficSym.
	PairTraffic [][]uint64
	// ThreadFinish is the completion cycle of each thread (global ID).
	ThreadFinish []uint64
	// WriteRuns holds the §4.2 write-run statistics when
	// Config.TrackWriteRuns was set, else nil.
	WriteRuns *WriteRunStats
	// Online holds the migration log of an online adaptive run (see
	// Spec.Online), nil for static runs. The omitempty tag keeps
	// every static Result's JSON encoding byte-identical to before online
	// mode existed — result caches and stored sweeps are unaffected.
	Online *OnlineStats `json:"Online,omitempty"`
}

// Totals aggregates the per-processor stats.
func (r *Result) Totals() ProcStats {
	var t ProcStats
	for i := range r.Procs {
		p := &r.Procs[i]
		t.Busy += p.Busy
		t.Switch += p.Switch
		t.Idle += p.Idle
		t.Refs += p.Refs
		t.SharedRefs += p.SharedRefs
		t.Hits += p.Hits
		for k := range t.Misses {
			t.Misses[k] += p.Misses[k]
		}
		t.Upgrades += p.Upgrades
		t.InvalidationsSent += p.InvalidationsSent
		t.InvalidationsReceived += p.InvalidationsReceived
		t.Writebacks += p.Writebacks
		t.UpdatesSent += p.UpdatesSent
		t.UpdatesReceived += p.UpdatesReceived
		t.NetworkWait += p.NetworkWait
		if p.Finish > t.Finish {
			t.Finish = p.Finish
		}
	}
	return t
}

// CoherenceTraffic returns the paper's §4.2 quantity: compulsory misses
// plus invalidation misses plus invalidations, summed machine-wide.
func (r *Result) CoherenceTraffic() uint64 {
	t := r.Totals()
	return t.Misses[Compulsory] + t.Misses[InvalidationMiss] + t.InvalidationsSent
}

// PairTrafficSym returns the symmetric pairwise coherence-traffic matrix
// used as the metric of the dynamic COHERENCE placement algorithm.
func (r *Result) PairTrafficSym() [][]uint64 {
	n := len(r.PairTraffic)
	m := make([][]uint64, n)
	for i := range m {
		m[i] = make([]uint64, n)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			v := r.PairTraffic[a][b] + r.PairTraffic[b][a]
			m[a][b] = v
			m[b][a] = v
		}
	}
	return m
}

// MissFractions returns each miss kind as a fraction of total references.
func (r *Result) MissFractions() [numMissKinds]float64 {
	t := r.Totals()
	var f [numMissKinds]float64
	if t.Refs == 0 {
		return f
	}
	for k := range f {
		f[k] = float64(t.Misses[k]) / float64(t.Refs)
	}
	return f
}
