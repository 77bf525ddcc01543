package analysis

import "encoding/binary"

// Pairwise sharing matrices. All matrices are symmetric with zero
// diagonals, indexed by thread ID.

// SharingData bundles every statically derived quantity the placement
// algorithms consume (§2 of the paper).
type SharingData struct {
	// App names the application the data was derived from.
	App string
	// SharedRefs[a][b] is shared-references(ta, tb): the number of
	// references made by threads a and b to their common data addresses.
	SharedRefs [][]uint64
	// SharedAddrs[a][b] is the number of distinct addresses referenced by
	// both a and b.
	SharedAddrs [][]uint64
	// WriteSharedRefs[a][b] counts references by a and b to common
	// addresses that at least one of the two writes — the invalidation-
	// relevant subset used by MAX-WRITES.
	WriteSharedRefs [][]uint64
	// InvalidatingRefs[a][b] counts the write references by a and b to
	// their common addresses — the references that can cause
	// invalidations if a and b run on different processors (MIN-INVS).
	InvalidatingRefs [][]uint64
	// PrivateAddrs[t] is thread t's distinct private address count
	// (MIN-PRIV).
	PrivateAddrs []int
	// Lengths[t] is thread t's dynamic length in instructions (LOAD-BAL
	// and the +LB variants).
	Lengths []uint64
}

// NumThreads returns the number of threads covered.
func (d *SharingData) NumThreads() int { return len(d.Lengths) }

func newMatrix(n int) [][]uint64 {
	m := make([][]uint64, n)
	for i := range m {
		m[i] = make([]uint64, n)
	}
	return m
}

// signature groups the shared addresses that have the same sharers, each
// with the same writer flag. Every matrix entry is a sum over addresses
// that is linear within a signature, so the pair loop runs once per
// group on per-sharer sums instead of once per address.
type signature struct {
	sharers []addrUse // representative row: thread order and writer flags
	addrs   uint64    // addresses in the group
	refs    []uint64  // per sharer position: total references
	writes  []uint64  // per sharer position: writes
}

// signatures groups every address with two or more sharers, in order of
// first appearance in the index.
func (x *sharerIndex) signatures() []*signature {
	var groups []*signature
	bySig := make(map[string]*signature)
	var key []byte
	for id := range x.addrs {
		users := x.sharers(id)
		if len(users) < 2 {
			continue
		}
		key = key[:0]
		for _, u := range users {
			w := uint64(0)
			if u.count.Writes > 0 {
				w = 1
			}
			key = binary.AppendUvarint(key, uint64(u.thread)<<1|w)
		}
		g := bySig[string(key)]
		if g == nil {
			g = &signature{sharers: users, refs: make([]uint64, len(users)), writes: make([]uint64, len(users))}
			bySig[string(key)] = g
			groups = append(groups, g)
		}
		g.addrs++
		for k, u := range users {
			g.refs[k] += u.count.Total()
			g.writes[k] += uint64(u.count.Writes)
		}
	}
	return groups
}

// Sharing computes the full SharingData for the set. An address used by k
// threads contributes to k·(k-1)/2 pairs; addresses are grouped by
// signature first, so the pair loop runs once per signature.
func (s *Set) Sharing() *SharingData {
	n := len(s.Profiles)
	d := &SharingData{
		App:              s.App,
		SharedRefs:       newMatrix(n),
		SharedAddrs:      newMatrix(n),
		WriteSharedRefs:  newMatrix(n),
		InvalidatingRefs: newMatrix(n),
		PrivateAddrs:     s.PrivateAddrs(),
		Lengths:          s.Lengths(),
	}
	// Accumulate the upper triangle (sharers ascend by thread), then
	// mirror it.
	for _, g := range s.idx.signatures() {
		for i, a := range g.sharers {
			refsA, addrsA := d.SharedRefs[a.thread], d.SharedAddrs[a.thread]
			writeA, invA := d.WriteSharedRefs[a.thread], d.InvalidatingRefs[a.thread]
			for j := i + 1; j < len(g.sharers); j++ {
				b := g.sharers[j]
				refs := g.refs[i] + g.refs[j]
				refsA[b.thread] += refs
				addrsA[b.thread] += g.addrs
				if a.count.Writes > 0 || b.count.Writes > 0 {
					writeA[b.thread] += refs
				}
				invA[b.thread] += g.writes[i] + g.writes[j]
			}
		}
	}
	for _, m := range [][][]uint64{d.SharedRefs, d.SharedAddrs, d.WriteSharedRefs, d.InvalidatingRefs} {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				m[b][a] = m[a][b]
			}
		}
	}
	return d
}
