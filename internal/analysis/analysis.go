// Package analysis performs the static, per-thread trace analysis the paper
// feeds to its placement algorithms (§2, §3.1): per-thread address
// footprints, pairwise and N-way inter-thread sharing, references per
// shared address, percentage of shared references, and thread lengths
// (the measured characteristics of Table 2).
//
// "Static" means derived from each thread's trace in isolation, with no
// cross-thread temporal information — exactly the limitation the paper
// identifies (§4.2): static shared-reference counts over-estimate runtime
// coherence traffic by one to three orders of magnitude.
package analysis

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// RefCount tallies loads and stores to a single address by a single thread.
type RefCount struct {
	Reads  uint32
	Writes uint32
}

// Total returns reads+writes.
func (c RefCount) Total() uint64 { return uint64(c.Reads) + uint64(c.Writes) }

// AddrRefs is one thread's reference counts to one shared address.
type AddrRefs struct {
	Addr uint64
	RefCount
}

// Profile summarizes one thread's memory footprint.
type Profile struct {
	// Thread is the thread ID within the application.
	Thread int
	// Shared lists each shared-segment address the thread touched with
	// its reference counts, in ascending address order.
	Shared []AddrRefs
	// TotalRefs is the thread's total data reference count.
	TotalRefs uint64
	// SharedRefs is the number of references to the shared segment.
	SharedRefs uint64
	// PrivateAddrs is the number of distinct private addresses touched.
	PrivateAddrs int
	// Length is the thread's dynamic length in instructions.
	Length uint64
}

// SharedAddrs returns the number of distinct shared addresses touched.
func (p *Profile) SharedAddrs() int { return len(p.Shared) }

// RefsPerSharedAddr returns the thread's temporal-locality metric used by
// SHARE-ADDR: shared references divided by distinct shared addresses.
// It returns 0 for a thread that touches no shared data.
func (p *Profile) RefsPerSharedAddr() float64 {
	if len(p.Shared) == 0 {
		return 0
	}
	return float64(p.SharedRefs) / float64(len(p.Shared))
}

// Set is the full static analysis of one application trace. It is
// immutable once Analyze returns, so it is safe for concurrent use.
type Set struct {
	// App is the application name.
	App string
	// Profiles holds one profile per thread, indexed by thread ID.
	Profiles []*Profile

	idx sharerIndex
}

// sharerIndex is the inverted shared-address index in CSR form: the
// sharers of addrs[id] are users[start[id]:start[id+1]]. IDs ascend with
// the address, and each sharer list ascends by thread because the index
// is filled thread-major.
type sharerIndex struct {
	addrs []uint64
	start []int
	users []addrUse
}

type addrUse struct {
	thread int32
	count  RefCount
}

// sharers returns the sharer list of address ID id.
func (x *sharerIndex) sharers(id int) []addrUse { return x.users[x.start[id]:x.start[id+1]] }

// interner maps shared addresses to dense IDs, in first-touch order over
// every thread of a trace, and counts one thread at a time into a dense
// scratch array.
type interner struct {
	ids     map[uint64]int32
	addrs   []uint64   // ID -> address
	counts  []RefCount // per-thread scratch indexed by ID; zero between threads
	touched []int32    // IDs with nonzero counts in the current thread
	private map[uint64]struct{}
}

// profile counts one thread's references. Until index renumbers them, the
// profile's Shared entries are in touched order and carry interned IDs in
// place of addresses.
func (in *interner) profile(t *trace.Thread) *Profile {
	p := &Profile{Thread: t.ID}
	in.touched = in.touched[:0]
	clear(in.private)
	for c := t.Cursor(); ; {
		e, ok := c.Next()
		if !ok {
			break
		}
		p.TotalRefs++
		if !trace.IsShared(e.Addr) {
			in.private[e.Addr] = struct{}{}
			continue
		}
		p.SharedRefs++
		id, seen := in.ids[e.Addr]
		if !seen {
			id = int32(len(in.addrs))
			in.ids[e.Addr] = id
			in.addrs = append(in.addrs, e.Addr)
			in.counts = append(in.counts, RefCount{})
		}
		rc := &in.counts[id]
		if *rc == (RefCount{}) {
			in.touched = append(in.touched, id)
		}
		if e.Kind == trace.Write {
			rc.Writes++
		} else {
			rc.Reads++
		}
	}
	p.Shared = make([]AddrRefs, len(in.touched))
	for k, id := range in.touched {
		p.Shared[k] = AddrRefs{Addr: uint64(id), RefCount: in.counts[id]}
		in.counts[id] = RefCount{}
	}
	p.PrivateAddrs = len(in.private)
	p.Length = t.Instructions()
	return p
}

// index renumbers the interned addresses in ascending address order,
// builds the CSR index from the profiles' entries, and refills each
// profile's Shared list from it. Walking the index by address refills
// every Shared list in address order without a per-thread sort.
func (in *interner) index(profiles []*Profile) sharerIndex {
	x := sharerIndex{addrs: slices.Clone(in.addrs), start: make([]int, len(in.addrs)+1)}
	slices.Sort(x.addrs)
	rank := make([]int32, len(x.addrs))
	for r, addr := range x.addrs {
		rank[in.ids[addr]] = int32(r)
	}
	for _, p := range profiles {
		for _, e := range p.Shared {
			x.start[rank[e.Addr]+1]++
		}
	}
	for r := range x.addrs {
		x.start[r+1] += x.start[r]
	}
	x.users = make([]addrUse, x.start[len(x.addrs)])
	next := slices.Clone(x.start[:len(x.addrs)])
	for i, p := range profiles {
		for _, e := range p.Shared {
			r := rank[e.Addr]
			x.users[next[r]] = addrUse{thread: int32(i), count: e.RefCount}
			next[r]++
		}
		p.Shared = p.Shared[:0]
	}
	for r, addr := range x.addrs {
		for _, u := range x.sharers(r) {
			p := profiles[u.thread]
			p.Shared = append(p.Shared, AddrRefs{Addr: addr, RefCount: u.count})
		}
	}
	return x
}

// Analyze profiles every thread of tr and builds the inverted index.
func Analyze(tr *trace.Trace) *Set {
	s := &Set{App: tr.App, Profiles: make([]*Profile, tr.NumThreads())}
	in := interner{ids: make(map[uint64]int32), private: make(map[uint64]struct{})}
	for i, t := range tr.Threads {
		s.Profiles[i] = in.profile(t)
	}
	s.idx = in.index(s.Profiles)
	return s
}

// NumThreads returns the number of threads analyzed.
func (s *Set) NumThreads() int { return len(s.Profiles) }

// Lengths returns every thread's dynamic length, indexed by thread ID.
func (s *Set) Lengths() []uint64 {
	ls := make([]uint64, len(s.Profiles))
	for i, p := range s.Profiles {
		ls[i] = p.Length
	}
	return ls
}

// PrivateAddrs returns every thread's distinct private address count.
func (s *Set) PrivateAddrs() []int {
	ns := make([]int, len(s.Profiles))
	for i, p := range s.Profiles {
		ns[i] = p.PrivateAddrs
	}
	return ns
}

// String summarizes the set for diagnostics.
func (s *Set) String() string {
	var refs uint64
	for _, p := range s.Profiles {
		refs += p.TotalRefs
	}
	return fmt.Sprintf("analysis.Set{%s: %d threads, %d refs}", s.App, len(s.Profiles), refs)
}
