// Package mtsim reproduces "Impact of Sharing-Based Thread Placement on
// Multithreaded Architectures" (Thekkath & Eggers, ISCA 1994): a
// trace-driven simulator for multithreaded shared-memory multiprocessors,
// a suite of fourteen synthetic parallel applications, static per-thread
// sharing analysis, the paper's thread placement algorithms, and the
// experiment harness that regenerates every table and figure.
//
// The typical pipeline is:
//
//	tr, _ := mtsim.BuildApp("Water", mtsim.DefaultParams())
//	set := mtsim.Analyze(tr)
//	pl, _ := mtsim.Place(set, "SHARE-REFS", 4, 0)
//	res, _ := mtsim.Simulate(tr, pl, mtsim.DefaultConfig(4))
//	fmt.Println(res.ExecTime)
//
// or, for whole experiments, mtsim.NewSuite + the Table/Figure methods.
package mtsim

import (
	"errors"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported core types. The facade keeps examples and external tooling
// on one import while the implementation stays in focused internal
// packages.
type (
	// Trace is a per-thread memory reference trace.
	Trace = trace.Trace
	// Event is one memory reference.
	Event = trace.Event
	// Recorder builds one thread's reference stream (for custom apps).
	Recorder = trace.Recorder
	// App is a generatable application of the workload suite.
	App = workload.App
	// Params controls workload generation.
	Params = workload.Params
	// Set is the static per-thread analysis of a trace.
	Set = analysis.Set
	// SharingData holds the pairwise sharing matrices fed to placement.
	SharingData = analysis.SharingData
	// Characteristics is a Table 2 row.
	Characteristics = analysis.Characteristics
	// Placement maps threads to processors.
	Placement = placement.Placement
	// Algorithm is a named placement strategy.
	Algorithm = placement.Algorithm
	// Config describes a simulated machine.
	Config = sim.Config
	// Result is a simulation outcome.
	Result = sim.Result
	// Suite orchestrates the paper's experiments.
	Suite = core.Suite
	// Options configures a Suite.
	Options = core.Options
	// SyntheticSpec parameterizes a synthetic workload whose program
	// characteristics (sharing uniformity, sequentiality, length skew)
	// are set directly.
	SyntheticSpec = workload.SyntheticSpec
	// FalseSharingReport classifies shared cache lines as truly or
	// falsely shared.
	FalseSharingReport = analysis.FalseSharingReport
	// WriteRunStats summarizes migratory vs ping-pong write sharing.
	WriteRunStats = sim.WriteRunStats
	// EfficiencyModel is the analytical multithreaded-processor
	// efficiency model (deterministic and MVA variants).
	EfficiencyModel = model.Machine
)

// Reference kinds and miss classification, re-exported.
const (
	Read  = trace.Read
	Write = trace.Write

	Compulsory       = sim.Compulsory
	ConflictIntra    = sim.ConflictIntra
	ConflictInter    = sim.ConflictInter
	InvalidationMiss = sim.InvalidationMiss
)

// SharedBase is the first address of the shared data segment.
const SharedBase = trace.SharedBase

// DefaultParams returns the default workload generation parameters
// (scale 1.0, fixed seed).
func DefaultParams() Params { return workload.DefaultParams() }

// DefaultConfig returns the paper's architectural parameters (Table 3)
// for the given processor count.
func DefaultConfig(processors int) Config { return sim.DefaultConfig(processors) }

// DefaultOptions returns the paper's experiment sweep configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// Applications returns the fourteen-application suite in the paper's
// order.
func Applications() []App { return workload.Apps() }

// AppByName returns the named application.
func AppByName(name string) (App, error) { return workload.ByName(name) }

// BuildApp generates the named application's trace.
func BuildApp(name string, p Params) (*Trace, error) {
	a, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return a.Build(p)
}

// Analyze computes the static per-thread analysis of a trace.
func Analyze(tr *Trace) *Set { return analysis.Analyze(tr) }

// Algorithms returns the names of every static placement algorithm in the
// paper's order (six sharing-based, LOAD-BAL, six "+LB" variants, RANDOM).
func Algorithms() []string { return placement.Names() }

// Place runs the named placement algorithm over the set's sharing data.
// seed is used only by RANDOM.
func Place(set *Set, algorithm string, processors int, seed int64) (*Placement, error) {
	alg, err := placement.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	return alg.Place(set.Sharing(), processors, seed)
}

// PlaceData is Place for callers that already hold the sharing matrices.
func PlaceData(d *SharingData, algorithm string, processors int, seed int64) (*Placement, error) {
	alg, err := placement.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	return alg.Place(d, processors, seed)
}

// Simulate runs the trace on the machine described by cfg under the given
// placement, which must be non-nil (SimulateDynamic runs without one).
func Simulate(tr *Trace, pl *Placement, cfg Config) (*Result, error) {
	if pl == nil {
		return nil, errors.New("mtsim: Simulate needs a placement")
	}
	return sim.Run(tr, sim.Spec{Config: cfg, Placement: pl})
}

// NewSuite returns an experiment suite over the given options.
func NewSuite(opts Options) *Suite { return core.NewSuite(opts) }

// NewRecorder returns a recorder appending to thread t of tr, for building
// custom application traces against the same pipeline.
func NewRecorder(tr *Trace, t int) *Recorder { return trace.NewRecorder(tr, t) }

// NewTrace returns an empty trace for a custom application with n threads.
func NewTrace(app string, n int) *Trace { return trace.New(app, n) }

// DefaultSyntheticSpec returns a synthetic workload shaped like the
// paper's suite (uniform, sequential sharing).
func DefaultSyntheticSpec() SyntheticSpec { return workload.DefaultSyntheticSpec() }

// Synthetic returns an App generating traces for the spec, for sweeping
// program characteristics the built-in suite holds fixed.
func Synthetic(spec SyntheticSpec) (App, error) { return workload.Synthetic(spec) }

// KLShare computes the KL-SHARE extension placement: LOAD-BAL refined by
// Kernighan-Lin swaps that reduce cross-processor sharing under a load
// constraint — the library's strongest static sharing optimizer.
func KLShare(set *Set, processors int) (*Placement, error) {
	return placement.KLShare(set.Sharing(), processors, placement.DefaultLoadSlack)
}

// OptimalShare computes the exact sharing-optimal thread-balanced
// placement by branch-and-bound (small thread counts only) — an oracle
// bound on what any static sharing-based placement could achieve.
func OptimalShare(set *Set, processors int) (*Placement, error) {
	return placement.OptimalShare(set.Sharing(), processors)
}

// SimulateDynamic runs the online self-scheduling extension: no static
// placement; processors pull the next queued thread whenever a hardware
// context frees. fifo=false dispatches longest threads first.
func SimulateDynamic(tr *Trace, cfg Config, longestFirst bool) (*Result, error) {
	policy := sim.FIFO
	if longestFirst {
		policy = sim.LongestFirst
	}
	return sim.Run(tr, sim.Spec{Config: cfg, Schedule: policy})
}
