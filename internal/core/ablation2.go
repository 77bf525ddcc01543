package core

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/sim"
)

// Second group of ablations: coherence protocol, memory latency and
// interconnect contention — each relaxes one assumption of the paper's
// simulator and asks whether the conclusions survive.

// ---- protocol ----

// ProtocolRow compares the two coherence protocols for one placement.
type ProtocolRow struct {
	Algorithm string
	Protocol  sim.Protocol
	ExecTime  uint64
	// InvalidationsPerKilo and UpdatesPerKilo are coherence messages per
	// 1000 references under the respective protocol.
	InvalidationsPerKilo float64
	UpdatesPerKilo       float64
	MissesPerKilo        float64
}

// ProtocolComparison runs the given placements under both the paper's
// write-invalidate protocol and the write-update extension.
func (s *Suite) ProtocolComparison(app string, procs int, algs []string) ([]ProtocolRow, error) {
	tr, err := s.Trace(app)
	if err != nil {
		return nil, err
	}
	var rows []ProtocolRow
	for _, alg := range algs {
		pl, err := s.Place(app, alg, procs)
		if err != nil {
			return nil, err
		}
		for _, proto := range []sim.Protocol{sim.Invalidate, sim.Update} {
			cfg, err := s.Config(app, procs, false)
			if err != nil {
				return nil, err
			}
			cfg.Protocol = proto
			res, err := s.run(tr, sim.Spec{Config: cfg, Placement: pl})
			if err != nil {
				return nil, err
			}
			tot := res.Totals()
			kilo := float64(tot.Refs) / 1000
			rows = append(rows, ProtocolRow{
				Algorithm:            alg,
				Protocol:             proto,
				ExecTime:             res.ExecTime,
				InvalidationsPerKilo: float64(tot.InvalidationsSent) / kilo,
				UpdatesPerKilo:       float64(tot.UpdatesSent) / kilo,
				MissesPerKilo:        float64(tot.TotalMisses()) / kilo,
			})
		}
	}
	return rows, nil
}

// ProtocolReport renders the protocol comparison.
func ProtocolReport(app string, procs int, rows []ProtocolRow) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: coherence protocol (%s, %d processors)", app, procs),
		Note:    "(write-update trades invalidation misses for update messages; the paper simulates invalidate only)",
		Columns: []string{"Algorithm", "Protocol", "Exec time", "Inv /1k", "Updates /1k", "Misses /1k"},
	}
	for _, r := range rows {
		t.AddRow(r.Algorithm, r.Protocol.String(), fmt.Sprint(r.ExecTime),
			report.F(r.InvalidationsPerKilo, 2), report.F(r.UpdatesPerKilo, 2),
			report.F(r.MissesPerKilo, 2))
	}
	return t
}

// ---- latency ----

// LatencyRow is one point of the memory-latency sweep.
type LatencyRow struct {
	Latency uint64
	// LoadBalGain is (1 - LOAD-BAL/RANDOM) x 100: the headline
	// load-balancing advantage at this latency.
	LoadBalGain float64
	// BestSharingGain is the same for the best sharing-based algorithm.
	BestSharingGain float64
}

// LatencySweep re-runs the Figure 2/3-style comparison across memory
// latencies. The paper fixes 50 cycles; the sweep asks whether load
// balancing stays dominant when remote memory becomes much slower.
func (s *Suite) LatencySweep(app string, procs int, latencies []uint64) ([]LatencyRow, error) {
	tr, err := s.Trace(app)
	if err != nil {
		return nil, err
	}
	algs := append(SharingAlgorithms(), "LOAD-BAL", "RANDOM")
	var rows []LatencyRow
	for _, lat := range latencies {
		var random, loadBal, bestSharing uint64
		for _, alg := range algs {
			pl, err := s.Place(app, alg, procs)
			if err != nil {
				return nil, err
			}
			cfg, err := s.Config(app, procs, false)
			if err != nil {
				return nil, err
			}
			cfg.MemLatency = lat
			res, err := s.run(tr, sim.Spec{Config: cfg, Placement: pl})
			if err != nil {
				return nil, err
			}
			switch alg {
			case "RANDOM":
				random = res.ExecTime
			case "LOAD-BAL":
				loadBal = res.ExecTime
			default:
				if bestSharing == 0 || res.ExecTime < bestSharing {
					bestSharing = res.ExecTime
				}
			}
		}
		rows = append(rows, LatencyRow{
			Latency:         lat,
			LoadBalGain:     (1 - float64(loadBal)/float64(random)) * 100,
			BestSharingGain: (1 - float64(bestSharing)/float64(random)) * 100,
		})
	}
	return rows, nil
}

// LatencyReport renders the latency sweep.
func LatencyReport(app string, procs int, rows []LatencyRow) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: memory latency (%s, %d processors; gains vs RANDOM)", app, procs),
		Note:    "(the paper fixes 50 cycles; load balancing should dominate at every latency)",
		Columns: []string{"Latency", "LOAD-BAL gain %", "Best sharing gain %"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Latency), report.F(r.LoadBalGain, 1), report.F(r.BestSharingGain, 1))
	}
	return t
}

// ---- contention ----

// ContentionRow is one point of the interconnect-contention sweep.
type ContentionRow struct {
	// Channels is the interconnect channel count (0 = uncontended).
	Channels int
	ExecTime uint64
	// Normalized is ExecTime over the uncontended ExecTime.
	Normalized float64
	// WaitPerTransaction is mean channel-queueing cycles per memory
	// transaction.
	WaitPerTransaction float64
}

// ContentionSweep varies the modeled interconnect width for one
// application/placement. The paper's multipath network is uncontended;
// this asks how much headroom that assumption has.
func (s *Suite) ContentionSweep(app, alg string, procs int, channels []int) ([]ContentionRow, error) {
	tr, err := s.Trace(app)
	if err != nil {
		return nil, err
	}
	pl, err := s.Place(app, alg, procs)
	if err != nil {
		return nil, err
	}
	var rows []ContentionRow
	var base uint64
	for _, ch := range channels {
		cfg, err := s.Config(app, procs, false)
		if err != nil {
			return nil, err
		}
		cfg.NetworkChannels = ch
		res, err := s.run(tr, sim.Spec{Config: cfg, Placement: pl})
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = res.ExecTime
		}
		tot := res.Totals()
		transactions := tot.TotalMisses() + tot.Upgrades
		wait := 0.0
		if transactions > 0 {
			wait = float64(tot.NetworkWait) / float64(transactions)
		}
		rows = append(rows, ContentionRow{
			Channels:           ch,
			ExecTime:           res.ExecTime,
			Normalized:         float64(res.ExecTime) / float64(base),
			WaitPerTransaction: wait,
		})
	}
	return rows, nil
}

// ContentionReport renders the contention sweep.
func ContentionReport(app, alg string, procs int, rows []ContentionRow) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: interconnect contention (%s, %s, %d processors)", app, alg, procs),
		Note:    "(0 channels = the paper's uncontended multipath network)",
		Columns: []string{"Channels", "Exec time", "vs uncontended", "Wait/transaction"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Channels), fmt.Sprint(r.ExecTime),
			report.F(r.Normalized, 3), report.F(r.WaitPerTransaction, 1))
	}
	return t
}
