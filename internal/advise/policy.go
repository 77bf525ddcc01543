// Package advise is the placement advisor: online re-placement policies
// for the simulation engines' mid-run migration support
// (sim.Run with Spec.Online), the virtual ONLINE/… algorithm-name grammar
// the service tier uses to sweep online configurations through the
// unchanged /v1/sweep machinery, and the Recommend core behind the
// /v1/advise endpoint.
//
// The paper's dynamic COHERENCE-TRAFFIC algorithm (§4.2) re-places
// threads *between* runs from a measured pairwise traffic matrix. The
// policies here port that metric to *online* operation: the engine
// checkpoints per-thread-pair coherence stats every detection interval
// and the policy re-clusters mid-run, optionally with hysteresis so a
// migration happens only when its predicted savings exceed the charged
// migration cost.
package advise

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/placement"
	"repro/internal/sim"
)

// Coherence is the ported COHERENCE metric as an online policy: at every
// boundary it re-clusters threads by the cumulative measured
// thread-pair coherence traffic, exactly like
// placement.CoherenceTraffic but fed by live engine stats instead of a
// separate measurement run.
type Coherence struct{}

// Name implements sim.OnlinePolicy.
func (Coherence) Name() string { return "COHERENCE" }

// Decide implements sim.OnlinePolicy: cluster by the cumulative pair
// matrix, thread-balanced like the paper's dynamic algorithm. An
// infeasible clustering (or a boundary before any traffic) keeps the
// current placement.
func (Coherence) Decide(ck *sim.OnlineCheckpoint, env sim.OnlineEnv) []int {
	if !anyTraffic(ck.Pair) {
		return nil
	}
	pl, err := clusterByTraffic(ck.Pair, env.Lengths, env.Procs)
	if err != nil {
		return nil
	}
	return AssignOf(pl, len(env.Lengths))
}

// Hysteresis wraps another policy and suppresses its decision unless the
// predicted cycle savings exceed the migration bill: each avoided unit
// of cross-processor traffic is worth ~MemLatency cycles (extrapolated
// from the last epoch's traffic), each migrated thread costs Penalty.
type Hysteresis struct {
	// Inner produces candidate assignments; zero value means Coherence.
	Inner sim.OnlinePolicy
}

// Name implements sim.OnlinePolicy.
func (h Hysteresis) Name() string { return "HYST" }

// Decide implements sim.OnlinePolicy.
func (h Hysteresis) Decide(ck *sim.OnlineCheckpoint, env sim.OnlineEnv) []int {
	inner := h.Inner
	if inner == nil {
		inner = Coherence{}
	}
	want := inner.Decide(ck, env)
	if want == nil {
		return nil
	}
	moves := uint64(0)
	for t, q := range want {
		if q >= 0 && ck.Assign[t] >= 0 && q != ck.Assign[t] {
			moves++
		}
	}
	if moves == 0 {
		return nil
	}
	cur := CrossTraffic(ck.EpochPair, ck.Assign)
	prop := CrossTraffic(ck.EpochPair, want)
	if cur <= prop {
		return nil
	}
	if (cur-prop)*env.MemLatency <= moves*env.Penalty {
		return nil
	}
	return want
}

// PolicyNames lists the online policies, decision-order stable.
func PolicyNames() []string { return []string{"COHERENCE", "HYST"} }

// PolicyByName resolves an online policy name.
func PolicyByName(name string) (sim.OnlinePolicy, error) {
	switch name {
	case "COHERENCE":
		return Coherence{}, nil
	case "HYST":
		return Hysteresis{}, nil
	}
	return nil, fmt.Errorf("advise: unknown online policy %q", name)
}

// anyTraffic reports whether the matrix has any nonzero entry.
func anyTraffic(m [][]uint64) bool {
	for _, row := range m {
		for _, v := range row {
			if v != 0 {
				return true
			}
		}
	}
	return false
}

// clusterByTraffic runs the paper's §4.2 clustering on a measured
// thread-pair traffic matrix.
func clusterByTraffic(pair [][]uint64, lengths []uint64, procs int) (*placement.Placement, error) {
	d := &analysis.SharingData{Lengths: lengths}
	alg := placement.CoherenceTraffic(pair)
	return alg.Place(d, procs, 0)
}

// AssignOf flattens a placement into a thread→processor assignment.
// Threads missing from the placement map to -1.
func AssignOf(pl *placement.Placement, threads int) []int {
	assign := make([]int, threads)
	for i := range assign {
		assign[i] = -1
	}
	for q, cluster := range pl.Clusters {
		for _, t := range cluster {
			if t >= 0 && t < threads {
				assign[t] = q
			}
		}
	}
	return assign
}

// CrossTraffic sums the pair traffic between threads placed on different
// processors — the interconnect-visible share of the matrix under the
// given assignment. Unplaced threads (-1) contribute nothing.
func CrossTraffic(pair [][]uint64, assign []int) uint64 {
	var sum uint64
	for a, row := range pair {
		if a >= len(assign) || assign[a] < 0 {
			continue
		}
		for b, v := range row {
			if b >= len(assign) || assign[b] < 0 {
				continue
			}
			if assign[a] != assign[b] {
				sum += v
			}
		}
	}
	return sum
}
