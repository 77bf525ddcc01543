package placement

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/analysis"
)

// rankCandidates is the full-sort ranking the candidate heap replaced: it
// scores every cluster pair and sorts best-first, breaking ties on the
// clusters' immutable IDs. It is the oracle for the heap's visit order.
func rankCandidates(s *scorer, clusters []clus) []candidate {
	cands := make([]candidate, 0, len(clusters)*(len(clusters)-1)/2)
	for i := 0; i < len(clusters); i++ {
		for j := i + 1; j < len(clusters); j++ {
			p, sec := s.score(clusters[i], clusters[j])
			cands = append(cands, candidate{i: i, j: j, p: p, s: sec})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.p != cb.p {
			return ca.p > cb.p
		}
		if ca.s != cb.s {
			return ca.s > cb.s
		}
		ia, ja := clusters[ca.i].id, clusters[ca.j].id
		ib, jb := clusters[cb.i].id, clusters[cb.j].id
		if ia != ib {
			return ia < ib
		}
		return ja < jb
	})
	return cands
}

// referenceCluster is Cluster with the greedy loops written against the
// full-sort ranking, as they were before the candidate heap.
func referenceCluster(d *analysis.SharingData, p int, m Metric, bal Balance, slack float64) (*Placement, error) {
	t := d.NumThreads()
	if err := checkCounts(t, p); err != nil {
		return nil, fmt.Errorf("%s: %w", m.Name(), err)
	}
	s := newScorer(d, m, t)
	clusters := make([]clus, t)
	for i := range clusters {
		clusters[i] = clus{id: i, members: []int{i}}
	}
	switch bal {
	case ThreadBalance:
		feas := newFeasChecker(t, p)
		for len(clusters) > p {
			merged := false
			for _, cand := range rankCandidates(s, clusters) {
				if len(clusters[cand.i].members)+len(clusters[cand.j].members) > feas.ceil {
					continue
				}
				var sizes []int
				for k, c := range clusters {
					if k != cand.i && k != cand.j {
						sizes = append(sizes, len(c.members))
					}
				}
				sizes = append(sizes, len(clusters[cand.i].members)+len(clusters[cand.j].members))
				if !feas.check(sizes) {
					continue
				}
				clusters = s.merge(clusters, cand.i, cand.j)
				merged = true
				break
			}
			if !merged {
				return nil, fmt.Errorf("%s: no thread-balanced %d-way clustering of %d threads exists", m.Name(), p, t)
			}
		}
	case LoadBalance:
		var total uint64
		for _, l := range d.Lengths {
			total += l
		}
		limit := float64(total) / float64(p) * (1 + slack)
		load := func(c clus) float64 {
			var l uint64
			for _, t := range c.members {
				l += d.Lengths[t]
			}
			return float64(l)
		}
		for len(clusters) > p {
			merged := false
			for _, cand := range rankCandidates(s, clusters) {
				if load(clusters[cand.i])+load(clusters[cand.j]) <= limit {
					clusters = s.merge(clusters, cand.i, cand.j)
					merged = true
					break
				}
			}
			if merged {
				continue
			}
			bi, bj, best := -1, -1, 0.0
			for i := 0; i < len(clusters); i++ {
				for j := i + 1; j < len(clusters); j++ {
					if l := load(clusters[i]) + load(clusters[j]); bi == -1 || l < best {
						bi, bj, best = i, j, l
					}
				}
			}
			clusters = s.merge(clusters, bi, bj)
		}
	default:
		return nil, fmt.Errorf("unknown balance mode %d", bal)
	}
	pl := &Placement{Algorithm: m.Name(), Clusters: members(clusters)}
	pl.normalize()
	return pl, nil
}

// ReferencePlace computes the named algorithm's placement like
// ByName(name).Place, except that the metric algorithms cluster with the
// full-sort reference loop instead of the candidate heap.
func ReferencePlace(d *analysis.SharingData, name string, p int, seed int64) (*Placement, error) {
	for _, bal := range []Balance{ThreadBalance, LoadBalance} {
		for _, m := range sharingMetrics() {
			if metricAlgorithm(m, bal).Name != name {
				continue
			}
			pl, err := referenceCluster(d, p, m, bal, DefaultLoadSlack)
			if err != nil {
				return nil, err
			}
			pl.Algorithm = name
			return pl, nil
		}
	}
	alg, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return alg.Place(d, p, seed)
}

// TestCandidateHeapMatchesFullSort pops every candidate of random merge
// rounds and checks the heap visits them in exactly the full-sort order.
// Scores come from small integers, so primary and secondary ties are
// common and the cluster-ID tie-break decides much of the order.
func TestCandidateHeapMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		m := make([][]uint64, n)
		for i := range m {
			m[i] = make([]uint64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := uint64(rng.Intn(4))
				m[i][j], m[j][i] = v, v
			}
		}
		d := dataFromMatrix(m)
		for i := range d.PrivateAddrs {
			d.PrivateAddrs[i] = rng.Intn(3)
		}
		metric := sharingMetrics()[rng.Intn(len(sharingMetrics()))]
		s := newScorer(d, metric, n)
		clusters := make([]clus, n)
		for i := range clusters {
			clusters[i] = clus{id: i, members: []int{i}}
		}
		// Shuffle the identities against list positions, then merge a
		// few random pairs so IDs above n appear.
		rng.Shuffle(n, func(i, j int) { clusters[i], clusters[j] = clusters[j], clusters[i] })
		for k := rng.Intn(n / 2); k > 0 && len(clusters) > 2; k-- {
			i := rng.Intn(len(clusters))
			j := (i + 1 + rng.Intn(len(clusters)-1)) % len(clusters)
			if i > j {
				i, j = j, i
			}
			clusters = s.merge(clusters, i, j)
		}
		want := rankCandidates(s, clusters)
		h := s.candidates(nil, clusters)
		for k, w := range want {
			got, ok := h.pop()
			if !ok || got.i != w.i || got.j != w.j {
				t.Fatalf("trial %d (%s, %d clusters): pop %d = (%d,%d) ok=%v, full sort (%d,%d)",
					trial, metric.Name(), len(clusters), k, got.i, got.j, ok, w.i, w.j)
			}
		}
		if _, ok := h.pop(); ok {
			t.Fatalf("trial %d: heap holds more candidates than the full sort", trial)
		}
	}
}
