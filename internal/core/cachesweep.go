package core

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/sim"
)

// CacheSizeRow is one point of the cache-size sweep.
type CacheSizeRow struct {
	// CacheSize is the per-processor capacity in bytes.
	CacheSize int
	ExecTime  uint64
	// ConflictsPerKilo is intra- plus inter-thread conflict misses per
	// 1000 references.
	ConflictsPerKilo float64
	// CompulsoryInvalidationPerKilo is the placement-invariant
	// component per 1000 references.
	CompulsoryInvalidationPerKilo float64
}

// CacheSizeSweep varies the per-processor cache from stressed to the
// paper's 8 MB "infinite" size. Figure 5's mechanism in one axis: growing
// the cache removes conflict misses while compulsory+invalidation misses
// stay put — the part placement was supposed to remove and cannot.
func (s *Suite) CacheSizeSweep(app, alg string, procs int, sizes []int) ([]CacheSizeRow, error) {
	tr, err := s.Trace(app)
	if err != nil {
		return nil, err
	}
	pl, err := s.Place(app, alg, procs)
	if err != nil {
		return nil, err
	}
	var rows []CacheSizeRow
	for _, size := range sizes {
		cfg, err := s.Config(app, procs, false)
		if err != nil {
			return nil, err
		}
		cfg.CacheSize = size
		res, err := s.run(tr, sim.Spec{Config: cfg, Placement: pl})
		if err != nil {
			return nil, err
		}
		tot := res.Totals()
		kilo := float64(tot.Refs) / 1000
		rows = append(rows, CacheSizeRow{
			CacheSize: size,
			ExecTime:  res.ExecTime,
			ConflictsPerKilo: (float64(tot.Misses[sim.ConflictIntra]) +
				float64(tot.Misses[sim.ConflictInter])) / kilo,
			CompulsoryInvalidationPerKilo: (float64(tot.Misses[sim.Compulsory]) +
				float64(tot.Misses[sim.InvalidationMiss])) / kilo,
		})
	}
	return rows, nil
}

// CacheSizeReport renders the cache-size sweep.
func CacheSizeReport(app, alg string, procs int, rows []CacheSizeRow) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: cache size (%s, %s, %d processors)", app, alg, procs),
		Note:    "(conflict misses vanish with capacity; compulsory+invalidation — the placement-invariant part — stay)",
		Columns: []string{"Cache", "Exec time", "Conflicts /1k", "Comp+Inv /1k"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d KB", r.CacheSize>>10), fmt.Sprint(r.ExecTime),
			report.F(r.ConflictsPerKilo, 2), report.F(r.CompulsoryInvalidationPerKilo, 2))
	}
	return t
}
