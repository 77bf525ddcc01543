// Package core orchestrates the paper's experiments: it builds the
// fourteen-application workload, derives the static sharing data, computes
// every placement, drives the simulator, and produces the data behind each
// of the paper's tables and figures (Tables 1-5, Figures 2-5).
package core

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options configures a Suite.
type Options struct {
	// Params controls workload generation (scale and seed).
	Params workload.Params
	// ProcCounts are the processor configurations swept by the figures;
	// the paper uses 2, 4, 8 and 16.
	ProcCounts []int
	// RandomSeed seeds the RANDOM placement algorithm.
	RandomSeed int64
	// Parallelism bounds concurrent simulations (default: NumCPU).
	Parallelism int
	// Runner, when non-nil, replaces sim.Run for every simulation the
	// suite performs, static placement and dynamic scheduling alike.
	// Installing a runner — typically a resilience.EngineGuard's Run
	// method — threads watchdogs and runtime engine cross-checking
	// through every cell of a sweep.
	Runner func(*trace.Trace, sim.Spec) (*sim.Result, error)
}

// DefaultOptions returns the paper's configuration sweep at the library's
// default workload scale.
func DefaultOptions() Options {
	return Options{
		Params:     workload.DefaultParams(),
		ProcCounts: []int{2, 4, 8, 16},
		RandomSeed: 1,
	}
}

// Suite lazily builds and caches traces, analyses, coherence
// measurements, placements and simulation results for the application
// suite. It is safe for concurrent use. Cached values (including the
// *sim.Result and *placement.Placement returned by RunOne, Place and
// friends) are shared between callers and must be treated as read-only.
type Suite struct {
	opts Options

	mu     sync.Mutex
	apps   map[string]*appCell
	places map[placeKey]*onceCell[*placement.Placement]
	sims   map[simKey]*onceCell[*sim.Result]
}

// onceCell is a once-guarded computation: concurrent requests for the
// same cell compute it exactly once, and the suite lock is held only to
// find or create the cell, never across the (potentially expensive)
// computation.
type onceCell[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (c *onceCell[T]) get(f func() (T, error)) (T, error) {
	c.once.Do(func() { c.v, c.err = f() })
	return c.v, c.err
}

// cellFor returns m's cell for k, creating it under mu.
func cellFor[K comparable, T any](mu *sync.Mutex, m map[K]*onceCell[T], k K) *onceCell[T] {
	mu.Lock()
	defer mu.Unlock()
	c, ok := m[k]
	if !ok {
		c = &onceCell[T]{}
		m[k] = c
	}
	return c
}

// appCell holds one application's preparation stages, each its own
// once-cell, so preparing one application never blocks callers that
// need another.
type appCell struct {
	app       workload.App
	trace     onceCell[*trace.Trace]
	set       onceCell[*analysis.Set]
	sharing   onceCell[*analysis.SharingData]
	coherence onceCell[coherenceEntry]
}

type coherenceEntry struct {
	matrix [][]uint64
	result *sim.Result
}

// placeKey identifies one memoized placement computation. The RANDOM
// algorithm's seed is a pure function of (app, procs) within a suite, so
// the key is complete.
type placeKey struct {
	app, alg string
	procs    int
}

// simKey identifies one memoized simulation: the application, the exact
// placement (algorithm name plus every cluster's thread list — an exact
// encoding, not a lossy hash) and the full simulator configuration
// (comparable: all fields are scalars). Figure sweeps that revisit
// identical cells hit this cache instead of re-simulating.
type simKey struct {
	app       string
	placement string
	cfg       sim.Config
}

// PlacementKey encodes a placement exactly (collision-free): the
// algorithm name plus every cluster's thread list. It is the Suite's own
// memoization key for simulation cells, exported so other caches — the
// serving layer's content-addressed result cache in particular — key on
// the identical cell identity instead of reinventing a lossy one.
func PlacementKey(pl *placement.Placement) string {
	var b strings.Builder
	b.WriteString(pl.Algorithm)
	for _, cluster := range pl.Clusters {
		b.WriteByte('|')
		for j, tid := range cluster {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(tid))
		}
	}
	return b.String()
}

// NewSuite returns a Suite over the given options.
func NewSuite(opts Options) *Suite {
	if len(opts.ProcCounts) == 0 {
		opts.ProcCounts = []int{2, 4, 8, 16}
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}
	return &Suite{
		opts:   opts,
		apps:   make(map[string]*appCell),
		places: make(map[placeKey]*onceCell[*placement.Placement]),
		sims:   make(map[simKey]*onceCell[*sim.Result]),
	}
}

// Options returns the suite's configuration.
func (s *Suite) Options() Options { return s.opts }

// run dispatches one simulation through the configured Runner (sim.Run
// by default). Every simulation the suite performs funnels through here,
// so an installed runner sees the whole sweep.
func (s *Suite) run(tr *trace.Trace, spec sim.Spec) (*sim.Result, error) {
	if s.opts.Runner != nil {
		return s.opts.Runner(tr, spec)
	}
	return sim.Run(tr, spec)
}

// app returns the application's cell, creating it for a known name.
func (s *Suite) app(name string) (*appCell, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.apps[name]; ok {
		return c, nil
	}
	a, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	c := &appCell{app: a}
	s.apps[name] = c
	return c, nil
}

// Trace returns the application's (cached) trace.
func (s *Suite) Trace(app string) (*trace.Trace, error) {
	c, err := s.app(app)
	if err != nil {
		return nil, err
	}
	return s.trace(c)
}

func (s *Suite) trace(c *appCell) (*trace.Trace, error) {
	return c.trace.get(func() (*trace.Trace, error) {
		tr, err := c.app.Build(s.opts.Params)
		if err != nil {
			return nil, err
		}
		// Warm the lazily computed per-thread totals so the trace is
		// strictly read-only during concurrent simulation.
		tr.TotalInstructions()
		return tr, nil
	})
}

// Set returns the application's (cached) static analysis.
func (s *Suite) Set(app string) (*analysis.Set, error) {
	c, err := s.app(app)
	if err != nil {
		return nil, err
	}
	return s.set(c)
}

func (s *Suite) set(c *appCell) (*analysis.Set, error) {
	return c.set.get(func() (*analysis.Set, error) {
		tr, err := s.trace(c)
		if err != nil {
			return nil, err
		}
		return analysis.Analyze(tr), nil
	})
}

// Sharing returns the application's (cached) pairwise sharing data.
func (s *Suite) Sharing(app string) (*analysis.SharingData, error) {
	c, err := s.app(app)
	if err != nil {
		return nil, err
	}
	return c.sharing.get(func() (*analysis.SharingData, error) {
		set, err := s.set(c)
		if err != nil {
			return nil, err
		}
		return set.Sharing(), nil
	})
}

// Config returns the simulator configuration the paper would use for this
// application and processor count.
func (s *Suite) Config(app string, procs int, infinite bool) (sim.Config, error) {
	a, err := workload.ByName(app)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(procs)
	cfg.CacheSize = a.CacheSize
	if infinite {
		// §4.3: "We approximated infinite caches with 8MB caches".
		cfg.CacheSize = sim.InfiniteCacheSize
	}
	return cfg, nil
}

// randomSeed derives the seed of the RANDOM placement for a given app and
// processor count: deterministic, but distinct across configurations.
func (s *Suite) randomSeed(app string, procs int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", app, procs)
	return s.opts.RandomSeed ^ int64(h.Sum64())
}

// Place computes the named algorithm's placement for the application,
// memoized per (app, algorithm, procs). The returned placement is shared;
// treat it as read-only.
func (s *Suite) Place(app, alg string, procs int) (*placement.Placement, error) {
	cell := cellFor(&s.mu, s.places, placeKey{app: app, alg: alg, procs: procs})
	return cell.get(func() (*placement.Placement, error) {
		d, err := s.Sharing(app)
		if err != nil {
			return nil, err
		}
		a, err := placement.ByName(alg)
		if err != nil {
			return nil, err
		}
		return a.Place(d, procs, s.randomSeed(app, procs))
	})
}

// RunOne simulates one (application, algorithm, processors) cell.
func (s *Suite) RunOne(app, alg string, procs int, infinite bool) (*sim.Result, error) {
	pl, err := s.Place(app, alg, procs)
	if err != nil {
		return nil, err
	}
	return s.runPlacement(app, pl, procs, infinite)
}

// runPlacement simulates (app, placement, config), memoized on the exact
// cell so sweeps that revisit identical cells (figures and tables share
// many) reuse the result instead of re-simulating. The returned result is
// shared; treat it as read-only.
func (s *Suite) runPlacement(app string, pl *placement.Placement, procs int, infinite bool) (*sim.Result, error) {
	tr, err := s.Trace(app)
	if err != nil {
		return nil, err
	}
	cfg, err := s.Config(app, procs, infinite)
	if err != nil {
		return nil, err
	}
	cell := cellFor(&s.mu, s.sims, simKey{app: app, placement: PlacementKey(pl), cfg: cfg})
	return cell.get(func() (*sim.Result, error) { return s.run(tr, sim.Spec{Config: cfg, Placement: pl}) })
}

// AlgResult pairs an algorithm name with its simulation result.
type AlgResult struct {
	Name   string
	Result *sim.Result
}

// RunAlgorithms simulates the named algorithms concurrently and returns
// results in the same order.
func (s *Suite) RunAlgorithms(app string, algs []string, procs int, infinite bool) ([]AlgResult, error) {
	out := make([]AlgResult, len(algs))
	errs := make([]error, len(algs))
	sem := make(chan struct{}, s.opts.Parallelism)
	var wg sync.WaitGroup
	for i, alg := range algs {
		wg.Add(1)
		go func(i int, alg string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := s.RunOne(app, alg, procs, infinite)
			out[i] = AlgResult{Name: alg, Result: res}
			errs[i] = err
		}(i, alg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: %s/%s/%dp: %w", app, algs[i], procs, err)
		}
	}
	return out, nil
}

// CoherenceMeasurement returns the dynamically measured pairwise coherence
// traffic for the application (§4.2): a simulation with one thread per
// processor and as many processors as threads, so traffic between
// processor pairs equals traffic between thread pairs. The result is
// cached.
func (s *Suite) CoherenceMeasurement(app string) ([][]uint64, *sim.Result, error) {
	c, err := s.app(app)
	if err != nil {
		return nil, nil, err
	}
	e, err := c.coherence.get(func() (coherenceEntry, error) {
		tr, err := s.trace(c)
		if err != nil {
			return coherenceEntry{}, err
		}
		n := tr.NumThreads()
		clusters := make([][]int, n)
		for i := range clusters {
			clusters[i] = []int{i}
		}
		pl := &placement.Placement{Algorithm: "ONE-THREAD-PER-PROC", Clusters: clusters}
		cfg, err := s.Config(app, n, false)
		if err != nil {
			return coherenceEntry{}, err
		}
		res, err := s.run(tr, sim.Spec{Config: cfg, Placement: pl})
		if err != nil {
			return coherenceEntry{}, err
		}
		return coherenceEntry{matrix: res.PairTrafficSym(), result: res}, nil
	})
	return e.matrix, e.result, err
}

// RunCoherencePlacement simulates the dynamic COHERENCE placement (§4.2):
// clustering by measured pairwise coherence traffic — the best placement a
// sharing-based algorithm could possibly produce.
func (s *Suite) RunCoherencePlacement(app string, procs int, infinite bool) (*sim.Result, error) {
	matrix, _, err := s.CoherenceMeasurement(app)
	if err != nil {
		return nil, err
	}
	d, err := s.Sharing(app)
	if err != nil {
		return nil, err
	}
	alg := placement.CoherenceTraffic(matrix)
	pl, err := alg.Place(d, procs, 0)
	if err != nil {
		return nil, err
	}
	return s.runPlacement(app, pl, procs, infinite)
}

// SharingAlgorithms returns the names of the six static sharing-based
// (thread-balanced) algorithms.
func SharingAlgorithms() []string {
	return []string{"SHARE-REFS", "SHARE-ADDR", "MIN-PRIV", "MIN-INVS", "MAX-WRITES", "MIN-SHARE"}
}

// AllAlgorithms returns every static algorithm name in the paper's order.
func AllAlgorithms() []string { return placement.Names() }
