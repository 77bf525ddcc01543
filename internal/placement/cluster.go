package placement

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/analysis"
)

// Balance selects the cluster-combining constraint.
type Balance int

const (
	// ThreadBalance distributes threads equally: ⌊t/p⌋ or ⌈t/p⌉ per
	// processor (paper §2, "thread-balancing").
	ThreadBalance Balance = iota
	// LoadBalance distributes dynamic instructions equally, within a
	// slack percentage of the ideal per-processor load (the "+LB"
	// criterion, paper §2 item 8).
	LoadBalance
)

// DefaultLoadSlack is the load-balancing tolerance: a combination is
// admissible if the combined cluster load does not exceed the ideal
// per-processor load by more than this fraction. The paper uses
// "typically 10%".
const DefaultLoadSlack = 0.10

// Metric scores the desirability of combining two clusters. Higher primary
// scores combine first; secondary breaks primary ties (used by MIN-PRIV).
type Metric interface {
	// Name is the algorithm name the metric implements.
	Name() string
	// Score rates combining clusters ca and cb under the sharing data.
	Score(d *analysis.SharingData, ca, cb []int) (primary, secondary float64)
}

// avgPairwise computes the paper's sharing-metric normalization: the sum of
// m[ta][tb] over all cross-cluster thread pairs, divided by |ca|·|cb|.
func avgPairwise(m [][]uint64, ca, cb []int) float64 {
	var sum uint64
	for _, a := range ca {
		row := m[a]
		for _, b := range cb {
			sum += row[b]
		}
	}
	return float64(sum) / float64(len(ca)*len(cb))
}

// clus is a cluster with an immutable identity: a given ID always denotes
// the same member set, so pair scores can be cached across clustering
// iterations and across backtracking branches.
type clus struct {
	id      int
	members []int
}

// scorer evaluates and caches metric scores between clusters.
type scorer struct {
	d     *analysis.SharingData
	m     Metric
	next  int
	cache map[uint64][2]float64
}

func newScorer(d *analysis.SharingData, m Metric, initial int) *scorer {
	return &scorer{d: d, m: m, next: initial, cache: make(map[uint64][2]float64)}
}

func (s *scorer) score(a, b clus) (float64, float64) {
	lo, hi := a.id, b.id
	if lo > hi {
		lo, hi = hi, lo
	}
	k := uint64(lo)<<32 | uint64(hi)
	if v, ok := s.cache[k]; ok {
		return v[0], v[1]
	}
	p, sec := s.m.Score(s.d, a.members, b.members)
	s.cache[k] = [2]float64{p, sec}
	return p, sec
}

// merge returns a new cluster list with clusters i and j combined under a
// fresh identity.
func (s *scorer) merge(clusters []clus, i, j int) []clus {
	out := make([]clus, 0, len(clusters)-1)
	comb := make([]int, 0, len(clusters[i].members)+len(clusters[j].members))
	comb = append(comb, clusters[i].members...)
	comb = append(comb, clusters[j].members...)
	for k, c := range clusters {
		if k == i || k == j {
			continue
		}
		out = append(out, c)
	}
	out = append(out, clus{id: s.next, members: comb})
	s.next++
	return out
}

// Cluster runs the greedy agglomerative combining loop of §2.1: start with
// one cluster per thread and repeatedly combine the pair with the best
// metric value that the balance criterion admits, until exactly p clusters
// remain. Under ThreadBalance the search backtracks (paper §2.1 step 4)
// when a greedy choice makes the exact thread balance unreachable;
// infeasible size configurations are memoized so backtracking terminates.
func Cluster(d *analysis.SharingData, p int, m Metric, bal Balance, slack float64) (*Placement, error) {
	t := d.NumThreads()
	if err := checkCounts(t, p); err != nil {
		return nil, fmt.Errorf("%s: %w", m.Name(), err)
	}
	s := newScorer(d, m, t)
	clusters := make([]clus, t)
	for i := range clusters {
		clusters[i] = clus{id: i, members: []int{i}}
	}
	var out [][]int
	var err error
	switch bal {
	case ThreadBalance:
		out, err = clusterThreadBalanced(s, clusters, p)
	case LoadBalance:
		out = clusterLoadBalanced(s, clusters, p, slack)
	default:
		err = fmt.Errorf("unknown balance mode %d", bal)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.Name(), err)
	}
	pl := &Placement{Algorithm: m.Name(), Clusters: out}
	pl.normalize()
	return pl, nil
}

func checkCounts(t, p int) error {
	if p <= 0 {
		return fmt.Errorf("need at least one processor, got %d", p)
	}
	if t < p {
		return fmt.Errorf("cannot place %d threads on %d processors without idle processors", t, p)
	}
	return nil
}

// candidate is a scored cluster pair: positions i, j in the cluster list
// and the clusters' immutable IDs.
type candidate struct {
	i, j     int
	idi, idj int
	p, s     float64
}

// better orders candidates best-first: higher primary, then higher
// secondary, then lower cluster IDs. IDs are unique per pair, so this is
// a strict total order and the ranking is deterministic.
func (a candidate) better(b candidate) bool {
	if a.p != b.p {
		return a.p > b.p
	}
	if a.s != b.s {
		return a.s > b.s
	}
	if a.idi != b.idi {
		return a.idi < b.idi
	}
	return a.idj < b.idj
}

// candidateHeap yields the scored cluster pairs of one merge round
// best-first. Building it is O(m²) for m clusters; a round usually takes
// the first candidate, so popping lazily avoids sorting all of them.
type candidateHeap []candidate

// candidates scores every cluster pair into a heap, reusing h's storage.
func (s *scorer) candidates(h candidateHeap, clusters []clus) candidateHeap {
	h = h[:0]
	for i := 0; i < len(clusters); i++ {
		for j := i + 1; j < len(clusters); j++ {
			p, sec := s.score(clusters[i], clusters[j])
			h = append(h, candidate{i: i, j: j, idi: clusters[i].id, idj: clusters[j].id, p: p, s: sec})
		}
	}
	for k := len(h)/2 - 1; k >= 0; k-- {
		h.down(k)
	}
	return h
}

// pop removes and returns the best remaining candidate.
func (h *candidateHeap) pop() (candidate, bool) {
	old := *h
	if len(old) == 0 {
		return candidate{}, false
	}
	best := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
	return best, true
}

func (h candidateHeap) down(k int) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].better(h[c]) {
			c = r
		}
		if !h[c].better(h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

func members(clusters []clus) [][]int {
	out := make([][]int, len(clusters))
	for i, c := range clusters {
		out[i] = c.members
	}
	return out
}

// feasChecker decides whether a multiset of cluster sizes can still be
// merged into exactly p clusters of size ⌊t/p⌋ or ⌈t/p⌉ (with exactly
// t mod p of the larger size). This is exact-fill bin packing, memoized by
// the sorted size multiset. Using it as a lookahead subsumes the paper's
// backtracking (§2.1 step 4): the greedy loop only takes merges from which
// the balanced partition remains reachable, so it never gets stuck.
type feasChecker struct {
	floor, ceil, r, p int
	memo              map[string]bool
	packMemo          map[string]bool
}

func newFeasChecker(t, p int) *feasChecker {
	return &feasChecker{
		floor:    t / p,
		ceil:     (t + p - 1) / p,
		r:        t % p,
		p:        p,
		memo:     make(map[string]bool),
		packMemo: make(map[string]bool),
	}
}

// check reports whether the size multiset can complete. sizes is consumed
// (sorted in place).
func (f *feasChecker) check(sizes []int) bool {
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) < f.p || sizes[0] > f.ceil {
		return false
	}
	b := make([]byte, 0, 3*len(sizes))
	for _, s := range sizes {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	key := string(b)
	if v, ok := f.memo[key]; ok {
		return v
	}
	// Bins that must be filled exactly: r of capacity ceil, p-r of floor.
	bins := make([]int, f.p)
	for i := range bins {
		if i < f.r {
			bins[i] = f.ceil
		} else {
			bins[i] = f.floor
		}
	}
	res := f.pack(sizes, bins)
	f.memo[key] = res
	return res
}

// pack places sizes (sorted descending) into bins so every bin is filled
// exactly. Total conservation (sum sizes == sum bins) is an invariant.
// Sub-problems are memoized on (remaining sizes, sorted bin remainders):
// without the memo, uniform size multisets (e.g. dozens of equal clusters)
// explode combinatorially.
func (f *feasChecker) pack(sizes []int, bins []int) bool {
	if len(sizes) == 0 {
		return true
	}
	if sizes[0] == 1 {
		// Only unit clusters remain: they can fill any exact remainders
		// because the totals match.
		return true
	}
	key := packKey(sizes, bins)
	if v, ok := f.packMemo[key]; ok {
		return v
	}
	s0 := sizes[0]
	res := false
	tried := make(map[int]bool, len(bins))
	for b := range bins {
		if bins[b] < s0 || tried[bins[b]] {
			continue // too small, or symmetric to a bin already tried
		}
		tried[bins[b]] = true
		bins[b] -= s0
		ok := f.pack(sizes[1:], bins)
		bins[b] += s0
		if ok {
			res = true
			break
		}
	}
	f.packMemo[key] = res
	return res
}

// packKey canonically encodes a pack sub-problem. Bin remainders are
// order-insensitive, so they are sorted into the key.
func packKey(sizes []int, bins []int) string {
	rem := make([]int, len(bins))
	copy(rem, bins)
	sort.Ints(rem)
	b := make([]byte, 0, 3*(len(sizes)+len(rem))+1)
	for _, s := range sizes {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	for _, r := range rem {
		b = strconv.AppendInt(b, int64(r), 10)
		b = append(b, ',')
	}
	return string(b)
}

// clusterThreadBalanced runs the greedy metric-guided loop with the exact
// feasibility lookahead: the best-scoring pair whose merge keeps the
// thread-balanced p-way partition reachable is combined. A feasible state
// always admits at least one feasible merge (merge any two clusters that
// share a bin in a witness packing), so the loop terminates with a
// balanced partition whenever one exists.
func clusterThreadBalanced(s *scorer, clusters []clus, p int) ([][]int, error) {
	t := 0
	for _, c := range clusters {
		t += len(c.members)
	}
	feas := newFeasChecker(t, p)

	sizesAfterMerge := func(cs []clus, i, j int) []int {
		sizes := make([]int, 0, len(cs)-1)
		for k, c := range cs {
			if k == i || k == j {
				continue
			}
			sizes = append(sizes, len(c.members))
		}
		return append(sizes, len(cs[i].members)+len(cs[j].members))
	}

	var cands candidateHeap
	for len(clusters) > p {
		merged := false
		cands = s.candidates(cands, clusters)
		for cand, ok := cands.pop(); ok; cand, ok = cands.pop() {
			if len(clusters[cand.i].members)+len(clusters[cand.j].members) > feas.ceil {
				continue
			}
			if !feas.check(sizesAfterMerge(clusters, cand.i, cand.j)) {
				continue
			}
			clusters = s.merge(clusters, cand.i, cand.j)
			merged = true
			break
		}
		if !merged {
			return nil, fmt.Errorf("no thread-balanced %d-way clustering of %d threads exists", p, t)
		}
	}
	return members(clusters), nil
}

// clusterLoadBalanced applies the metric first and the load criterion
// second (paper §2 item 8): the best-scoring pair whose combined load stays
// within (1+slack) of the ideal per-processor load is combined. When no
// pair satisfies the load criterion, the pair yielding the smallest
// combined load is merged so the algorithm always terminates with exactly
// p clusters — this mirrors the paper's observation that "+LB" algorithms
// sometimes cannot generate a well balanced load because they satisfy the
// sharing criteria first.
func clusterLoadBalanced(s *scorer, clusters []clus, p int, slack float64) [][]int {
	var total uint64
	for _, l := range s.d.Lengths {
		total += l
	}
	ideal := float64(total) / float64(p)
	limit := ideal * (1 + slack)

	load := func(c clus) float64 {
		var l uint64
		for _, t := range c.members {
			l += s.d.Lengths[t]
		}
		return float64(l)
	}

	var cands candidateHeap
	for len(clusters) > p {
		mergedOne := false
		cands = s.candidates(cands, clusters)
		for cand, ok := cands.pop(); ok; cand, ok = cands.pop() {
			if load(clusters[cand.i])+load(clusters[cand.j]) <= limit {
				clusters = s.merge(clusters, cand.i, cand.j)
				mergedOne = true
				break
			}
		}
		if mergedOne {
			continue
		}
		// Fallback: minimize the resulting cluster's load.
		bi, bj, best := -1, -1, 0.0
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				l := load(clusters[i]) + load(clusters[j])
				if bi == -1 || l < best {
					bi, bj, best = i, j, l
				}
			}
		}
		clusters = s.merge(clusters, bi, bj)
	}
	return members(clusters)
}
