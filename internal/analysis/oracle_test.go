package analysis

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// referenceSharing is the per-address reference implementation of
// Set.Sharing: a map-based inverted index built from the profiles and a
// k·(k-1)/2 pair loop over every address's sharers.
func referenceSharing(s *Set) *SharingData {
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
	index := make(map[uint64][]addrUse)
	for _, p := range s.Profiles {
		for _, a := range p.Shared {
			index[a.Addr] = append(index[a.Addr], addrUse{thread: int32(p.Thread), count: a.RefCount})
		}
	}
	for _, users := range index {
		for i := 0; i < len(users); i++ {
			for j := i + 1; j < len(users); j++ {
				a, b := users[i], users[j]
				refs := a.count.Total() + b.count.Total()
				d.SharedRefs[a.thread][b.thread] += refs
				d.SharedRefs[b.thread][a.thread] += refs
				d.SharedAddrs[a.thread][b.thread]++
				d.SharedAddrs[b.thread][a.thread]++
				if a.count.Writes > 0 || b.count.Writes > 0 {
					d.WriteSharedRefs[a.thread][b.thread] += refs
					d.WriteSharedRefs[b.thread][a.thread] += refs
				}
				if w := uint64(a.count.Writes) + uint64(b.count.Writes); w > 0 {
					d.InvalidatingRefs[a.thread][b.thread] += w
					d.InvalidatingRefs[b.thread][a.thread] += w
				}
			}
		}
	}
	return d
}

// pairCounts holds one thread pair's entry of each of the four matrices.
type pairCounts struct {
	refs, addrs, writeShared, invalidating uint64
}

// pairSharing computes one pair's four matrix entries by merging the two
// threads' address-sorted profiles, without any index.
func pairSharing(s *Set, a, b int) pairCounts {
	var c pairCounts
	pa, pb := s.Profiles[a].Shared, s.Profiles[b].Shared
	for i, j := 0, 0; i < len(pa) && j < len(pb); {
		switch x, y := pa[i], pb[j]; {
		case x.Addr < y.Addr:
			i++
		case x.Addr > y.Addr:
			j++
		default:
			refs := x.Total() + y.Total()
			c.refs += refs
			c.addrs++
			if x.Writes > 0 || y.Writes > 0 {
				c.writeShared += refs
			}
			c.invalidating += uint64(x.Writes) + uint64(y.Writes)
			i++
			j++
		}
	}
	return c
}

// refsOf looks addr up in p's sorted shared list.
func refsOf(p *Profile, addr uint64) RefCount {
	i := sort.Search(len(p.Shared), func(i int) bool { return p.Shared[i].Addr >= addr })
	if i < len(p.Shared) && p.Shared[i].Addr == addr {
		return p.Shared[i].RefCount
	}
	return RefCount{}
}

// TestSharingMatchesReferenceApps asserts the grouped Sharing equals the
// per-address reference on every application of the suite.
func TestSharingMatchesReferenceApps(t *testing.T) {
	params := workload.Params{Scale: 0.25, Seed: workload.DefaultParams().Seed}
	for _, app := range workload.Apps() {
		tr, err := app.Build(params)
		if err != nil {
			t.Fatal(err)
		}
		s := Analyze(tr)
		if got, want := s.Sharing(), referenceSharing(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: grouped Sharing differs from the per-address reference", app.Name)
		}
	}
}

// TestSharingMatchesReferenceRandom runs the same differential on random
// traces of up to 40 threads. Each thread sweeps the 16-word regions it
// belongs to, writing them if it is one of the region's writers, so the
// addresses of a region share a sharer set and writer flags and signature
// grouping is exercised; scattered references add addresses with their
// own sharer sets, and private references fill in.
func TestSharingMatchesReferenceRandom(t *testing.T) {
	const regionWords = 16
	rng := rand.New(rand.NewSource(13))
	grouped, multi := uint64(0), uint64(0)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(39)
		regions := 1 + rng.Intn(6)
		member := make([][]int, regions) // 0 absent, 1 reader, 2 writer
		for g := range member {
			member[g] = make([]int, n)
			for i := range member[g] {
				member[g][i] = rng.Intn(3)
			}
		}
		tr := trace.New("rand", n)
		for i := 0; i < n; i++ {
			r := trace.NewRecorder(tr, i)
			for g := range member {
				for rep := rng.Intn(3); member[g][i] > 0 && rep >= 0; rep-- {
					for w := 0; w < regionWords; w++ {
						if addr := sh(g*regionWords + w); member[g][i] == 2 && (rep == 0 || rng.Intn(2) == 0) {
							r.Store(addr)
						} else {
							r.Load(addr)
						}
					}
				}
			}
			for j := 0; j < 40; j++ {
				addr := sh(regions*regionWords + rng.Intn(100))
				if rng.Intn(4) != 0 {
					addr = pv(i*100 + rng.Intn(20))
				}
				if rng.Intn(4) == 0 {
					r.Store(addr)
				} else {
					r.Load(addr)
				}
			}
		}
		s := Analyze(tr)
		got, want := s.Sharing(), referenceSharing(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d threads): grouped Sharing differs from the per-address reference", trial, n)
		}
		for _, g := range s.idx.signatures() {
			if g.addrs > 1 {
				grouped += g.addrs
			}
			multi += g.addrs
		}
	}
	if grouped*2 < multi {
		t.Errorf("only %d of %d multi-sharer addresses share a signature: the traces barely exercise grouping", grouped, multi)
	}
	t.Logf("%d of %d multi-sharer addresses share a signature", grouped, multi)
}
