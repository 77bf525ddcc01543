package placement

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/analysis"
)

// Algorithm is a named placement strategy.
type Algorithm struct {
	// Name is the paper's name for the algorithm, e.g. "SHARE-REFS" or
	// "SHARE-REFS+LB".
	Name string
	// SharingBased reports whether the algorithm's combining criterion
	// is a measure of inter-thread sharing.
	SharingBased bool
	// Place computes the placement of the data's threads onto p
	// processors. seed feeds any randomized choices (only RANDOM uses
	// it); deterministic algorithms ignore it.
	Place func(d *analysis.SharingData, p int, seed int64) (*Placement, error)
}

// ---- sharing metrics ----

// shareRefs implements SHARE-REFS: maximize shared references among
// co-located threads.
type shareRefs struct{}

func (shareRefs) Name() string { return "SHARE-REFS" }
func (shareRefs) Score(d *analysis.SharingData, ca, cb []int) (float64, float64) {
	return avgPairwise(d.SharedRefs, ca, cb), 0
}

// shareAddr implements SHARE-ADDR: maximize shared references per shared
// address, preferring the pair with the denser shared working set.
type shareAddr struct{}

func (shareAddr) Name() string { return "SHARE-ADDR" }
func (shareAddr) Score(d *analysis.SharingData, ca, cb []int) (float64, float64) {
	refs := avgPairwise(d.SharedRefs, ca, cb)
	addrs := avgPairwise(d.SharedAddrs, ca, cb)
	if addrs == 0 {
		return 0, 0
	}
	// Primary: refs per shared address. Secondary: the raw refs, so that
	// among equally dense pairs the heavier sharers combine first.
	return refs / addrs, refs
}

// minPriv implements MIN-PRIV: maximize shared references and, as the tie
// break, minimize the combined count of private addresses per processor.
type minPriv struct{}

func (minPriv) Name() string { return "MIN-PRIV" }
func (minPriv) Score(d *analysis.SharingData, ca, cb []int) (float64, float64) {
	priv := 0
	for _, t := range ca {
		priv += d.PrivateAddrs[t]
	}
	for _, t := range cb {
		priv += d.PrivateAddrs[t]
	}
	return avgPairwise(d.SharedRefs, ca, cb), -float64(priv)
}

// minInvs implements MIN-INVS: minimize cross-processor references that can
// cause invalidations. Greedily combining the pair with the largest
// separation cost (cross-cluster invalidating writes) removes the most
// potential invalidation traffic from the interconnect.
type minInvs struct{}

func (minInvs) Name() string { return "MIN-INVS" }
func (minInvs) Score(d *analysis.SharingData, ca, cb []int) (float64, float64) {
	return avgPairwise(d.InvalidatingRefs, ca, cb), 0
}

// maxWrites implements MAX-WRITES: maximize write-shared data references
// among co-located threads, omitting read-shared data.
type maxWrites struct{}

func (maxWrites) Name() string { return "MAX-WRITES" }
func (maxWrites) Score(d *analysis.SharingData, ca, cb []int) (float64, float64) {
	return avgPairwise(d.WriteSharedRefs, ca, cb), 0
}

// minShare implements MIN-SHARE: the deliberate worst case, co-locating the
// threads that share least.
type minShare struct{}

func (minShare) Name() string { return "MIN-SHARE" }
func (minShare) Score(d *analysis.SharingData, ca, cb []int) (float64, float64) {
	return -avgPairwise(d.SharedRefs, ca, cb), 0
}

// MatrixMetric scores cluster pairs by an externally supplied symmetric
// pairwise matrix. It implements the dynamic coherence-traffic placement of
// §4.2: the matrix is the per-thread-pair coherence traffic measured by a
// one-thread-per-processor simulation.
type MatrixMetric struct {
	// MetricName is the algorithm name to report.
	MetricName string
	// M[a][b] is the pairwise affinity of threads a and b; higher values
	// combine first.
	M [][]uint64
}

// Name returns the configured algorithm name.
func (m *MatrixMetric) Name() string { return m.MetricName }

// Score averages the matrix over cross-cluster thread pairs.
func (m *MatrixMetric) Score(_ *analysis.SharingData, ca, cb []int) (float64, float64) {
	return avgPairwise(m.M, ca, cb), 0
}

// lbSuffix is appended to the name of load-balancing variants.
const lbSuffix = "+LB"

// metricAlgorithm wraps a metric as a registry entry.
func metricAlgorithm(m Metric, bal Balance) Algorithm {
	name := m.Name()
	if bal == LoadBalance {
		name += lbSuffix
	}
	return Algorithm{
		Name:         name,
		SharingBased: true,
		Place: func(d *analysis.SharingData, p int, _ int64) (*Placement, error) {
			pl, err := Cluster(d, p, m, bal, DefaultLoadSlack)
			if err != nil {
				return nil, err
			}
			pl.Algorithm = name
			return pl, nil
		},
	}
}

// LoadBal computes the LOAD-BAL placement: longest-processing-time greedy
// assignment by dynamic thread length, the standard multiprocessor load
// balancing the paper compares against.
func LoadBal(d *analysis.SharingData, p int) (*Placement, error) {
	if err := checkCounts(d.NumThreads(), p); err != nil {
		return nil, fmt.Errorf("LOAD-BAL: %w", err)
	}
	order := make([]int, d.NumThreads())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := d.Lengths[order[a]], d.Lengths[order[b]]
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	clusters := make([][]int, p)
	loads := make([]uint64, p)
	for _, t := range order {
		// Assign to the least-loaded processor; prefer an empty one so
		// no processor is left idle.
		best := 0
		for q := 1; q < p; q++ {
			if loads[q] < loads[best] {
				best = q
			}
		}
		clusters[best] = append(clusters[best], t)
		loads[best] += d.Lengths[t]
	}
	pl := &Placement{Algorithm: "LOAD-BAL", Clusters: clusters}
	pl.normalize()
	return pl, nil
}

// Random computes the RANDOM placement: a seeded shuffle dealt into
// thread-balanced clusters — what a low-overhead runtime scheduler with no
// application knowledge would do.
func Random(d *analysis.SharingData, p int, seed int64) (*Placement, error) {
	t := d.NumThreads()
	if err := checkCounts(t, p); err != nil {
		return nil, fmt.Errorf("RANDOM: %w", err)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(t)
	clusters := make([][]int, p)
	floor, r := t/p, t%p
	pos := 0
	for q := 0; q < p; q++ {
		n := floor
		if q < r {
			n++
		}
		clusters[q] = append(clusters[q], perm[pos:pos+n]...)
		pos += n
	}
	pl := &Placement{Algorithm: "RANDOM", Clusters: clusters}
	pl.normalize()
	return pl, nil
}

// CoherenceTraffic builds the dynamic placement algorithm of §4.2 from a
// measured pairwise coherence-traffic matrix. It clusters exactly like
// SHARE-REFS but with runtime traffic as the metric, representing the best
// placement any sharing-based algorithm could produce.
func CoherenceTraffic(traffic [][]uint64) Algorithm {
	m := &MatrixMetric{MetricName: "COHERENCE", M: traffic}
	return Algorithm{
		Name:         m.MetricName,
		SharingBased: true,
		Place: func(d *analysis.SharingData, p int, _ int64) (*Placement, error) {
			return Cluster(d, p, m, ThreadBalance, DefaultLoadSlack)
		},
	}
}

// sharingMetrics lists the six static sharing metrics in the paper's order.
func sharingMetrics() []Metric {
	return []Metric{shareRefs{}, shareAddr{}, minPriv{}, minInvs{}, maxWrites{}, minShare{}}
}

// All returns every static placement algorithm in the paper's order:
// the six sharing-based algorithms, LOAD-BAL, the six "+LB" variants, and
// RANDOM. The dynamic COHERENCE algorithm is not listed because it needs a
// measured traffic matrix: between runs, build it with CoherenceTraffic;
// mid-run, the advise package's online policies feed the same metric from
// live engine checkpoints (sim.Run with Spec.Online).
func All() []Algorithm {
	var algs []Algorithm
	for _, m := range sharingMetrics() {
		algs = append(algs, metricAlgorithm(m, ThreadBalance))
	}
	algs = append(algs, Algorithm{
		Name: "LOAD-BAL",
		Place: func(d *analysis.SharingData, p int, _ int64) (*Placement, error) {
			return LoadBal(d, p)
		},
	})
	for _, m := range sharingMetrics() {
		algs = append(algs, metricAlgorithm(m, LoadBalance))
	}
	algs = append(algs, Algorithm{
		Name:  "RANDOM",
		Place: Random,
	})
	return algs
}

// ByName returns the named algorithm from All.
func ByName(name string) (Algorithm, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return Algorithm{}, fmt.Errorf("placement: unknown algorithm %q", name)
}

// Names returns the names of every algorithm in All, in order.
func Names() []string {
	algs := All()
	ns := make([]string, len(algs))
	for i, a := range algs {
		ns[i] = a.Name
	}
	return ns
}
