// Package serve is the simulation-as-a-service layer: an HTTP daemon
// (cmd/mtserve) exposing the paper's simulator over a JSON API.
//
//	POST /v1/simulate   one (app, placement, config) cell, synchronous
//	POST /v1/sweep      a cell cross-product, asynchronous: returns a job ID
//	POST /v1/advise     recommend a placement from measured sharing, synchronous
//	GET  /v1/jobs/{id}  poll a sweep job's status and results
//	GET  /v1/placements catalog of apps, placement algorithms, engines
//	GET  /healthz       liveness, queue/worker/cache state, degradation
//	GET  /metrics       process counters in Prometheus text format
//
// Every simulation flows through a bounded job queue drained by a worker
// pool; a full queue answers 429 with Retry-After (backpressure, never
// unbounded buffering). Results are memoized in a content-addressed LRU
// (internal/serve/rescache) keyed exactly the way core.Suite memoizes
// locally, so repeated and overlapping sweeps are served from cache. The
// default runner is a resilience.EngineGuard: a fast-engine divergence
// benches the engine but the server keeps answering (correctly, slower)
// and reports "degraded" in /healthz.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"sync"

	"repro/internal/advise"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Request-size and shape bounds. The decoder runs on untrusted input, so
// allocations are bounded the same way the MTT2 trace reader's are: hard
// byte limit first, element-count limits after parsing.
const (
	// MaxRequestBytes caps the request body.
	MaxRequestBytes = 1 << 20
	// MaxProcs caps the simulated machine size.
	MaxProcs = 512
	// MaxScale caps workload scale (trace memory is linear in it).
	MaxScale = 4.0
	// MaxNameLen caps app/algorithm/engine name lengths.
	MaxNameLen = 128
	// MaxClusterThreads caps the total thread count of an explicit
	// placement.
	MaxClusterThreads = 4096
	// MaxSweepCells caps the cell cross-product of one sweep job.
	MaxSweepCells = 4096
	// MaxSweepList caps each dimension list of a sweep.
	MaxSweepList = 64
	// MaxWebhookURLLen caps a sweep's webhook_url.
	MaxWebhookURLLen = 2048
)

// Engine labels accepted by the API. EngineGuarded (the default) runs the
// fast engine under the server's EngineGuard; the explicit labels bypass
// cross-checking and force one engine.
const (
	EngineGuarded   = "guarded"
	EngineFast      = "fast"
	EngineReference = "reference"
)

// Engines lists the accepted engine labels.
func Engines() []string { return []string{EngineGuarded, EngineFast, EngineReference} }

// Params selects the workload generation parameters of a request. A nil
// Params in a request means the server's defaults.
type Params struct {
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
}

// PlacementSpec is an explicit placement: the exact clusters to simulate,
// bypassing the server-side placement algorithms. Algorithm is a free
// label (it names the placement in results and cache keys).
type PlacementSpec struct {
	Algorithm string  `json:"algorithm"`
	Clusters  [][]int `json:"clusters"`
}

// ConfigSpec mirrors sim.Config field-for-field with wire-friendly names.
// A zero field means "the server derives it" (via sim.DefaultConfig plus
// the workload's preferred cache size), except the booleans, which are
// taken literally.
type ConfigSpec struct {
	Processors       int    `json:"processors"`
	MaxContexts      int    `json:"max_contexts,omitempty"`
	CacheSize        int    `json:"cache_size,omitempty"`
	Associativity    int    `json:"associativity,omitempty"`
	LineSize         int    `json:"line_size,omitempty"`
	HitCycles        uint64 `json:"hit_cycles,omitempty"`
	MemLatency       uint64 `json:"mem_latency,omitempty"`
	SwitchCycles     uint64 `json:"switch_cycles,omitempty"`
	Protocol         string `json:"protocol,omitempty"` // "invalidate" (default) or "update"
	NetworkChannels  int    `json:"network_channels,omitempty"`
	NetworkOccupancy uint64 `json:"network_occupancy,omitempty"`
	TrackWriteRuns   bool   `json:"track_write_runs,omitempty"`
	InfiniteCache    bool   `json:"infinite_cache,omitempty"`
}

// ConfigSpecOf converts a sim.Config to its wire form (client side).
func ConfigSpecOf(cfg sim.Config) ConfigSpec {
	return ConfigSpec{
		Processors:       cfg.Processors,
		MaxContexts:      cfg.MaxContexts,
		CacheSize:        cfg.CacheSize,
		Associativity:    cfg.Associativity,
		LineSize:         cfg.LineSize,
		HitCycles:        cfg.HitCycles,
		MemLatency:       cfg.MemLatency,
		SwitchCycles:     cfg.SwitchCycles,
		Protocol:         cfg.Protocol.String(),
		NetworkChannels:  cfg.NetworkChannels,
		NetworkOccupancy: cfg.NetworkOccupancy,
		TrackWriteRuns:   cfg.TrackWriteRuns,
		InfiniteCache:    cfg.InfiniteCache,
	}
}

// ToSim converts the wire form back to a sim.Config, filling defaulted
// fields from sim.DefaultConfig.
func (c ConfigSpec) ToSim() (sim.Config, error) {
	cfg := sim.DefaultConfig(c.Processors)
	cfg.MaxContexts = c.MaxContexts
	if c.CacheSize != 0 {
		cfg.CacheSize = c.CacheSize
	}
	cfg.Associativity = c.Associativity
	if c.LineSize != 0 {
		cfg.LineSize = c.LineSize
	}
	if c.HitCycles != 0 {
		cfg.HitCycles = c.HitCycles
	}
	if c.MemLatency != 0 {
		cfg.MemLatency = c.MemLatency
	}
	if c.SwitchCycles != 0 {
		cfg.SwitchCycles = c.SwitchCycles
	}
	switch c.Protocol {
	case "", sim.Invalidate.String():
		cfg.Protocol = sim.Invalidate
	case sim.Update.String():
		cfg.Protocol = sim.Update
	default:
		return sim.Config{}, fmt.Errorf("unknown protocol %q", c.Protocol)
	}
	cfg.NetworkChannels = c.NetworkChannels
	if c.NetworkOccupancy != 0 {
		cfg.NetworkOccupancy = c.NetworkOccupancy
	}
	cfg.TrackWriteRuns = c.TrackWriteRuns
	cfg.InfiniteCache = c.InfiniteCache
	return cfg, nil
}

// SimulateRequest is the POST /v1/simulate body: one simulation cell.
// The cell is named either by Algorithm (a server-side placement
// algorithm applied to App's sharing data) or by an explicit Placement;
// exactly one must be set. Config, when present, overrides the derived
// (Procs, Infinite) machine entirely.
type SimulateRequest struct {
	Params    *Params        `json:"params,omitempty"`
	App       string         `json:"app"`
	Algorithm string         `json:"algorithm,omitempty"`
	Placement *PlacementSpec `json:"placement,omitempty"`
	Procs     int            `json:"procs,omitempty"`
	Infinite  bool           `json:"infinite,omitempty"`
	Config    *ConfigSpec    `json:"config,omitempty"`
	Engine    string         `json:"engine,omitempty"`
	Counters  bool           `json:"counters,omitempty"`
}

// SweepRequest is the POST /v1/sweep body: the cross product
// apps x algorithms x procs, simulated asynchronously under one job.
type SweepRequest struct {
	Params     *Params  `json:"params,omitempty"`
	Apps       []string `json:"apps"`
	Algorithms []string `json:"algorithms"`
	Procs      []int    `json:"procs"`
	Infinite   bool     `json:"infinite,omitempty"`
	Engine     string   `json:"engine,omitempty"`
	// WebhookURL, when set, is POSTed the job's terminal state (a
	// JobEvent body) with journaled at-least-once delivery: retried with
	// backoff across endpoint flaps and server restarts, deduplicated by
	// the Mtsim-Delivery header. http/https only.
	WebhookURL string `json:"webhook_url,omitempty"`
}

// Cells returns the size of the sweep's cross product.
func (r *SweepRequest) Cells() int {
	return len(r.Apps) * len(r.Algorithms) * len(r.Procs)
}

// SimulateResponse is the POST /v1/simulate reply.
type SimulateResponse struct {
	// Key is the cell's content address (lowercase hex SHA-256).
	Key string `json:"key"`
	// Cached reports whether the result came from the result cache.
	Cached bool `json:"cached"`
	// Engine echoes the effective engine label.
	Engine string `json:"engine"`
	// Degraded reports whether the server's engine guard has benched the
	// fast engine (the result is then reference-engine, still correct).
	Degraded bool `json:"degraded,omitempty"`
	// Result is the full simulation result, deeply equal to the
	// corresponding direct sim.Run / core.Suite library call.
	Result *sim.Result `json:"result"`
	// Counters holds the request-scoped probe counts when the request set
	// "counters" and the cell was actually simulated (a cache hit carries
	// no counters — nothing ran).
	Counters *obs.Counter `json:"counters,omitempty"`
	// Trace is the request's distributed-trace ID, usable against
	// GET /v1/trace/{id}. Empty when telemetry is disabled.
	Trace string `json:"trace,omitempty"`
}

// CellResult is one completed cell of a sweep job.
type CellResult struct {
	App       string      `json:"app"`
	Algorithm string      `json:"algorithm"`
	Procs     int         `json:"procs"`
	Key       string      `json:"key"`
	Cached    bool        `json:"cached"`
	Result    *sim.Result `json:"result"`
}

// Job status values.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusRetriable = "retriable" // drained before completion; resubmit
	StatusCanceled  = "canceled"
)

// SweepAccepted is the POST /v1/sweep reply (HTTP 202).
type SweepAccepted struct {
	// Job is the content-addressed job ID: the same sweep resubmitted (to
	// this server or a restarted one) maps to the same ID.
	Job    string `json:"job"`
	Status string `json:"status"`
	Cells  int    `json:"cells"`
	// Existing reports that an identical sweep was already known; its
	// job record was returned instead of a new one.
	Existing bool `json:"existing,omitempty"`
	// Trace is the job's distributed-trace ID (the existing job's ID when
	// Existing). Empty when telemetry is disabled.
	Trace string `json:"trace,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} reply.
type JobStatus struct {
	Job       string `json:"job"`
	Status    string `json:"status"`
	Cells     int    `json:"cells"`
	Completed int    `json:"completed"`
	Error     string `json:"error,omitempty"`
	// Trace is the job's distributed-trace ID, usable against
	// GET /v1/trace/{id}. Empty when telemetry is disabled.
	Trace string `json:"trace,omitempty"`
	// Results carries every cell (in the sweep's deterministic
	// apps x algorithms x procs order) once the job is done.
	Results []CellResult `json:"results,omitempty"`
}

// CacheHealth summarizes the result cache inside /healthz.
type CacheHealth struct {
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// StoreHealth summarizes the durable result store inside /healthz
// (present only when the daemon runs with -store-dir).
type StoreHealth struct {
	Entries        int     `json:"entries"`
	SealedSegments int     `json:"sealed_segments"`
	Hits           uint64  `json:"hits"`
	Misses         uint64  `json:"misses"`
	Puts           uint64  `json:"puts"`
	Quarantined    uint64  `json:"quarantined"`
	HitRate        float64 `json:"hit_rate"`
}

// WebhookHealth summarizes the delivery dispatcher inside /healthz
// (present only when webhooks are enabled).
type WebhookHealth struct {
	Pending   int    `json:"pending"`
	Delivered uint64 `json:"delivered"`
	Failed    uint64 `json:"failed"`
	Retries   uint64 `json:"retries"`
}

// JobsHealth summarizes job accounting inside /healthz. Accepted ==
// Completed + Failed + Retriable + Canceled + live jobs; graceful
// shutdown must never lose an accepted job.
type JobsHealth struct {
	Accepted  int64 `json:"accepted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Retriable int64 `json:"retriable"`
	Canceled  int64 `json:"canceled"`
}

// HealthResponse is the GET /healthz reply.
type HealthResponse struct {
	// Status is "ok", "degraded" (fast engine benched, still answering)
	// or "draining" (shutdown in progress, new work refused).
	Status string `json:"status"`
	// Role distinguishes a worker daemon from a cluster coordinator
	// serving the same API; mtserve leaves it empty (a bare worker),
	// mtcoord reports "coordinator".
	Role          string      `json:"role,omitempty"`
	Workers       int         `json:"workers"`
	QueueDepth    int         `json:"queue_depth"`
	QueueCapacity int         `json:"queue_capacity"`
	InFlight      int         `json:"in_flight"`
	Degraded      bool        `json:"degraded"`
	Divergence    string      `json:"divergence,omitempty"`
	Cache         CacheHealth `json:"cache"`
	Jobs          JobsHealth  `json:"jobs"`
	// Store reports the durable result store when one is attached.
	Store *StoreHealth `json:"store,omitempty"`
	// Webhooks reports the delivery dispatcher when one is attached.
	Webhooks *WebhookHealth `json:"webhooks,omitempty"`
}

// PlacementsResponse is the GET /v1/placements reply: the server's
// catalog of simulatable cells.
type PlacementsResponse struct {
	Apps       []string `json:"apps"`
	Algorithms []string `json:"algorithms"`
	Engines    []string `json:"engines"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
	// Retriable hints that the identical request may succeed later
	// (queue full, server draining).
	Retriable bool `json:"retriable,omitempty"`
}

// decodeStrict decodes exactly one JSON value from r into v with unknown
// fields rejected and the byte budget enforced before any allocation
// proportional to the input happens.
func decodeStrict(r io.Reader, v any) error {
	lr := io.LimitReader(r, MaxRequestBytes+1)
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) && lr.(*io.LimitedReader).N == 0 {
			return fmt.Errorf("request body exceeds %d bytes", MaxRequestBytes)
		}
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON request")
	}
	return nil
}

// DecodeSimulateRequest reads and validates a POST /v1/simulate body.
func DecodeSimulateRequest(r io.Reader) (*SimulateRequest, error) {
	var req SimulateRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeSweepRequest reads and validates a POST /v1/sweep body.
func DecodeSweepRequest(r io.Reader) (*SweepRequest, error) {
	var req SweepRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func validateParams(p *Params) error {
	if p == nil {
		return nil
	}
	if p.Scale <= 0 || p.Scale > MaxScale {
		return fmt.Errorf("params.scale %g out of range (0, %g]", p.Scale, MaxScale)
	}
	return nil
}

func validateEngine(e string) error {
	switch e {
	case "", EngineGuarded, EngineFast, EngineReference:
		return nil
	}
	return fmt.Errorf("unknown engine %q (want one of %v)", e, Engines())
}

// validateAlgorithmName accepts a server-side algorithm name: a static
// algorithm from the placement registry, or a virtual ONLINE/… name (see
// the advise package) naming an online adaptive-placement configuration.
func validateAlgorithmName(alg string) error {
	if len(alg) > MaxNameLen {
		return fmt.Errorf("algorithm name longer than %d bytes", MaxNameLen)
	}
	if _, ok, err := advise.ParseOnlineAlgorithm(alg); ok || err != nil {
		return err
	}
	if servedAlgorithms()[alg] {
		return nil
	}
	_, err := placement.ByName(alg) // the unknown-name error
	return err
}

// servedApps and servedAlgorithms are the catalog names, built on first
// use: placement.ByName and workload.ByName build the whole catalog on
// every call, kilobytes per validated request.
var (
	servedApps       = sync.OnceValue(func() map[string]bool { return nameSet(workload.Names()) })
	servedAlgorithms = sync.OnceValue(func() map[string]bool { return nameSet(placement.Names()) })
)

func nameSet(names []string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

func validateApp(app string) error {
	if app == "" {
		return errors.New("app is required")
	}
	if len(app) > MaxNameLen {
		return fmt.Errorf("app name longer than %d bytes", MaxNameLen)
	}
	if servedApps()[app] {
		return nil
	}
	_, err := workload.ByName(app) // the unknown-name error
	return err
}

// Validate checks shape and bounds. It is the complete acceptance
// predicate for untrusted input: anything it passes is safe to enqueue
// (the simulation itself may still fail, e.g. a placement whose thread
// count does not match the app's trace).
func (r *SimulateRequest) Validate() error {
	if err := validateParams(r.Params); err != nil {
		return err
	}
	if err := validateApp(r.App); err != nil {
		return err
	}
	if err := validateEngine(r.Engine); err != nil {
		return err
	}
	switch {
	case r.Algorithm != "" && r.Placement != nil:
		return errors.New("algorithm and placement are mutually exclusive")
	case r.Algorithm == "" && r.Placement == nil:
		return errors.New("one of algorithm or placement is required")
	case r.Algorithm != "":
		if err := validateAlgorithmName(r.Algorithm); err != nil {
			return err
		}
	default:
		if err := r.Placement.validate(); err != nil {
			return err
		}
	}
	if r.Config != nil {
		if r.Config.Processors < 1 || r.Config.Processors > MaxProcs {
			return fmt.Errorf("config.processors %d out of range [1, %d]", r.Config.Processors, MaxProcs)
		}
		cfg, err := r.Config.ToSim()
		if err != nil {
			return err
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		if cfg.CacheSize > 2*sim.InfiniteCacheSize {
			return fmt.Errorf("config.cache_size %d exceeds the %d-byte bound", cfg.CacheSize, 2*sim.InfiniteCacheSize)
		}
	} else if r.Procs < 1 || r.Procs > MaxProcs {
		return fmt.Errorf("procs %d out of range [1, %d]", r.Procs, MaxProcs)
	}
	return nil
}

func (p *PlacementSpec) validate() error {
	if p.Algorithm == "" {
		return errors.New("placement.algorithm label is required")
	}
	if len(p.Algorithm) > MaxNameLen {
		return fmt.Errorf("placement.algorithm longer than %d bytes", MaxNameLen)
	}
	if len(p.Clusters) == 0 {
		return errors.New("placement.clusters is empty")
	}
	total := 0
	for i, cl := range p.Clusters {
		total += len(cl)
		if total > MaxClusterThreads {
			return fmt.Errorf("placement exceeds %d threads", MaxClusterThreads)
		}
		for _, tid := range cl {
			if tid < 0 || tid >= MaxClusterThreads {
				return fmt.Errorf("cluster %d: thread id %d out of range [0, %d)", i, tid, MaxClusterThreads)
			}
		}
	}
	return nil
}

// Validate checks shape and bounds of a sweep request.
func (r *SweepRequest) Validate() error {
	if err := validateParams(r.Params); err != nil {
		return err
	}
	if err := validateEngine(r.Engine); err != nil {
		return err
	}
	if len(r.Apps) == 0 || len(r.Algorithms) == 0 || len(r.Procs) == 0 {
		return errors.New("apps, algorithms and procs must all be non-empty")
	}
	if len(r.Apps) > MaxSweepList || len(r.Algorithms) > MaxSweepList || len(r.Procs) > MaxSweepList {
		return fmt.Errorf("sweep dimension exceeds %d entries", MaxSweepList)
	}
	if r.Cells() > MaxSweepCells {
		return fmt.Errorf("sweep expands to %d cells, limit %d", r.Cells(), MaxSweepCells)
	}
	for _, app := range r.Apps {
		if err := validateApp(app); err != nil {
			return err
		}
	}
	for _, alg := range r.Algorithms {
		if err := validateAlgorithmName(alg); err != nil {
			return err
		}
	}
	for _, p := range r.Procs {
		if p < 1 || p > MaxProcs {
			return fmt.Errorf("procs %d out of range [1, %d]", p, MaxProcs)
		}
	}
	if r.WebhookURL != "" {
		if err := validateWebhookURL(r.WebhookURL); err != nil {
			return err
		}
	}
	return nil
}

// validateWebhookURL accepts absolute http/https URLs with a host, of
// bounded length — the complete acceptance predicate for delivery
// targets (the dispatcher re-parses but never re-validates).
func validateWebhookURL(raw string) error {
	if len(raw) > MaxWebhookURLLen {
		return fmt.Errorf("webhook_url longer than %d bytes", MaxWebhookURLLen)
	}
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("webhook_url: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("webhook_url scheme %q not allowed (http or https)", u.Scheme)
	}
	if u.Host == "" {
		return errors.New("webhook_url has no host")
	}
	return nil
}
