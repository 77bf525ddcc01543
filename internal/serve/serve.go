package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"repro/internal/advise"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/resilience"
	"repro/internal/serve/rescache"
	"repro/internal/serve/webhook"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Workers is the simulation worker pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the task queue (default 4 * Workers * 32); a full
	// queue answers 429.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache (default
	// 4096 results).
	CacheEntries int
	// MaxSteps is the per-cell simulation step budget (0 = unlimited).
	MaxSteps uint64
	// RequestTimeout cancels a cell's simulation wall-clock-wise
	// (0 = no timeout). Enforced via the job's cancel flag, which the
	// simulator polls, so a stuck cell aborts with a BudgetError.
	RequestTimeout time.Duration
	// SampleEvery cross-checks every Nth guarded run against the
	// reference engine. Zero means the default, 16; a negative value
	// disables cross-checking.
	SampleEvery int
	// MinCellTime pads every simulated (non-cached) cell to a minimum
	// wall-clock service time. Zero in production; the cluster
	// self-benchmark sets it so shrunken benchmark cells model the
	// service time of full-scale cells (BENCH_cluster.json records the
	// value used).
	MinCellTime time.Duration
	// BeforeCell, when non-nil, runs at the start of every cell
	// execution. It is a test and benchmark hook (chaos tests slow one
	// worker down to manufacture a straggler); nil in production.
	BeforeCell func()
	// ServiceName labels this server's spans on the distributed-trace
	// timeline (default "mtserve"; clustered workers use their worker ID).
	ServiceName string
	// SpanCapacity bounds the in-process span store
	// (default obs.DefaultSpanCapacity).
	SpanCapacity int
	// StreamWindow, when positive, attaches an obs.Sampler with this
	// window width (simulated cycles) to cells whose job has a live SSE
	// subscriber, streaming per-window samples as "sample" events. Zero
	// streams job/cell transitions only.
	StreamWindow uint64
	// DisableTelemetry turns off the span store and event bus entirely:
	// no spans recorded, /v1/trace answers 404, SSE streams carry only
	// the initial snapshot and terminal event. Histograms stay on (three
	// atomic adds per observation).
	DisableTelemetry bool
	// Store, when non-nil, is the durable result tier under the in-memory
	// cache: cache miss → store probe → simulate, with every fresh result
	// written back. The caller owns the store's lifecycle (Close after
	// Drain). Nil means memory-only, exactly the pre-store behavior.
	Store *store.Store
	// Webhooks, when non-nil, delivers terminal job states to sweeps
	// submitted with a webhook_url. The caller owns the dispatcher's
	// lifecycle (Close after Drain). Nil disables webhook delivery
	// (webhook_url is still validated and accepted, then ignored).
	Webhooks *webhook.Dispatcher
	// Log receives operational messages; nil discards them.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		// Default: a single maximal sweep must be acceptable when idle
		// (the all-or-nothing push would otherwise always refuse it).
		// An explicit smaller depth is honored — tests and memory-tight
		// deployments trade sweep size for footprint.
		o.QueueDepth = o.Workers * 128
		if o.QueueDepth < MaxSweepCells {
			o.QueueDepth = MaxSweepCells
		}
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = 16
	}
	if o.ServiceName == "" {
		o.ServiceName = "mtserve"
	}
	return o
}

// suiteEntry is one cached core.Suite, keyed by workload params. The
// server uses suites only to resolve cells — traces, sharing data,
// placements, per-app configs — never Suite.RunOne, so a suite's memory
// stays bounded by the workload, not by the request history (results
// live in the server's own LRU instead).
type suiteEntry struct {
	params Params
	suite  *core.Suite
	used   uint64 // LRU tick
}

// maxSuites bounds distinct workload-param sets kept resident.
const maxSuites = 4

// flight deduplicates concurrent misses on the same cell key: the first
// worker simulates, later workers wait and share the result.
type flight struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// serverMetrics is every /metrics series, registered once at startup so
// the exposition is complete (all series present, zero-valued) from the
// first scrape.
type serverMetrics struct {
	set *obs.MetricSet

	requests      *obs.Metric
	resp2xx       *obs.Metric
	resp4xx       *obs.Metric
	resp5xx       *obs.Metric
	rejectedFull  *obs.Metric
	cacheHits     *obs.Metric
	cacheMisses   *obs.Metric
	cacheEvicts   *obs.Metric
	simRuns       *obs.Metric
	simFailures   *obs.Metric
	jobsAccepted  *obs.Metric
	jobsCompleted *obs.Metric
	jobsFailed    *obs.Metric
	jobsRetriable *obs.Metric
	jobsCanceled  *obs.Metric
	sfShared      *obs.Metric
	leasesGranted *obs.Metric
	cellsStolen   *obs.Metric
	queueDepth    *obs.Metric
	inFlight      *obs.Metric
	workers       *obs.Metric
	degraded      *obs.Metric
	streamDropped *obs.Metric

	storeHits        *obs.Metric
	storeMisses      *obs.Metric
	storePuts        *obs.Metric
	storeQuarantined *obs.Metric
	storeSegments    *obs.Metric
	webhookPending   *obs.Metric
	webhookDelivered *obs.Metric
	webhookFailed    *obs.Metric
	webhookRetries   *obs.Metric

	reqLatency *obs.Histogram
	queueWait  *obs.Histogram
	engineRate *obs.Histogram
}

func newServerMetrics() *serverMetrics {
	s := obs.NewMetricSet()
	return &serverMetrics{
		set:           s,
		requests:      s.Counter("serve_http_requests_total", "HTTP requests received"),
		resp2xx:       s.Counter("serve_http_responses_2xx_total", "HTTP responses with 2xx status"),
		resp4xx:       s.Counter("serve_http_responses_4xx_total", "HTTP responses with 4xx status"),
		resp5xx:       s.Counter("serve_http_responses_5xx_total", "HTTP responses with 5xx status"),
		rejectedFull:  s.Counter("serve_rejected_queue_full_total", "requests refused with 429 because the queue was full"),
		cacheHits:     s.Counter("serve_cache_hits_total", "result cache hits"),
		cacheMisses:   s.Counter("serve_cache_misses_total", "result cache misses"),
		cacheEvicts:   s.Counter("serve_cache_evictions_total", "result cache evictions"),
		simRuns:       s.Counter("serve_sim_runs_total", "simulations executed (cache misses actually run)"),
		simFailures:   s.Counter("serve_sim_failures_total", "simulations that returned an error"),
		jobsAccepted:  s.Counter("serve_jobs_accepted_total", "jobs accepted into the queue"),
		jobsCompleted: s.Counter("serve_jobs_completed_total", "jobs finished successfully"),
		jobsFailed:    s.Counter("serve_jobs_failed_total", "jobs finished with an error"),
		jobsRetriable: s.Counter("serve_jobs_retriable_total", "jobs drained before completion (resubmit after restart)"),
		jobsCanceled:  s.Counter("serve_jobs_canceled_total", "jobs canceled by their client"),
		sfShared:      s.Counter("serve_singleflight_shared_total", "cell computations shared between concurrent identical requests"),
		leasesGranted: s.Counter("serve_leases_granted_total", "coordinator leases accepted into the queue"),
		cellsStolen:   s.Counter("serve_lease_cells_stolen_total", "lease cells reclaimed by the coordinator before running"),
		queueDepth:    s.Gauge("serve_queue_depth", "tasks waiting in the queue"),
		inFlight:      s.Gauge("serve_inflight_cells", "cells currently simulating"),
		workers:       s.Gauge("serve_workers", "worker pool size"),
		degraded:      s.Gauge("serve_degraded", "1 once the fast engine is benched"),
		streamDropped: s.Counter("serve_stream_dropped_events_total", "SSE events dropped on slow subscribers"),

		storeHits:        s.Counter("serve_store_hits_total", "durable result store hits"),
		storeMisses:      s.Counter("serve_store_misses_total", "durable result store misses"),
		storePuts:        s.Counter("serve_store_puts_total", "results written to the durable store"),
		storeQuarantined: s.Counter("serve_store_quarantined_total", "store segments quarantined for corruption"),
		storeSegments:    s.Gauge("serve_store_sealed_segments", "sealed segments in the durable store"),
		webhookPending:   s.Gauge("serve_webhook_pending", "webhook deliveries awaiting a terminal outcome"),
		webhookDelivered: s.Counter("serve_webhook_delivered_total", "webhook deliveries acknowledged 2xx"),
		webhookFailed:    s.Counter("serve_webhook_failed_total", "webhook deliveries failed after exhausting attempts"),
		webhookRetries:   s.Counter("serve_webhook_retries_total", "webhook delivery attempts beyond the first"),

		reqLatency: s.Histogram("serve_request_latency_us", "HTTP request latency in microseconds"),
		queueWait:  s.Histogram("serve_queue_wait_us", "cell time from enqueue to execution start in microseconds"),
		engineRate: s.Histogram("serve_engine_cycles_per_sec", "simulated cycles per wall-clock second per engine run"),
	}
}

// Server is the simulation service: a worker pool draining a bounded
// queue of cells, backed by a content-addressed result cache and an
// engine guard. Create with NewServer, serve via Handler, stop with
// Drain.
type Server struct {
	opts  Options
	queue *taskQueue
	cache *rescache.Cache
	// requests is the request tier's memory index (request.go), bounded
	// by Options.CacheEntries like the result cache.
	requests *requestIndex
	guard    *resilience.EngineGuard
	jobs     *jobRegistry
	metrics  *serverMetrics

	// spans and bus are the telemetry layer; both nil when
	// Options.DisableTelemetry (every call site nil-guards, enforced by
	// mtlint's probeguard analyzer).
	spans *obs.SpanStore
	bus   *obs.Bus

	mu       sync.Mutex
	suites   []*suiteEntry
	suiteUse uint64
	flights  map[rescache.Key]*flight
	inFlight int
	draining bool

	wg sync.WaitGroup

	// Test hooks, nil in production. When set, every resolved cell first
	// sends its cell key on cellStarted, then blocks until cellGate is
	// closed or receives — letting the drain test freeze a worker
	// mid-cell deterministically.
	cellStarted chan string
	cellGate    chan struct{}
}

// NewServer builds a Server and starts its workers.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		queue:    newTaskQueue(opts.QueueDepth),
		cache:    rescache.New(opts.CacheEntries),
		jobs:     newJobRegistry(),
		metrics:  newServerMetrics(),
		flights:  make(map[rescache.Key]*flight),
		requests: newRequestIndex(opts.CacheEntries),
	}
	if !opts.DisableTelemetry {
		s.spans = obs.NewSpanStore(opts.SpanCapacity)
		s.bus = obs.NewBus(s.metrics.streamDropped)
	}
	s.guard = &resilience.EngineGuard{
		SampleEvery: opts.SampleEvery,
		OnFallback: func(rep resilience.DivergenceReport) {
			s.metrics.degraded.Set(1)
			if opts.Log != nil {
				opts.Log.Warn("fast engine benched", "divergence", rep.String())
			}
		},
	}
	s.metrics.workers.Set(int64(opts.Workers))
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Guard exposes the server's engine guard (for health reporting and
// tests).
func (s *Server) Guard() *resilience.EngineGuard { return s.guard }

// Metrics exposes the server's metric registry.
func (s *Server) Metrics() *obs.MetricSet { return s.metrics.set }

// CacheStats returns the result cache counters.
func (s *Server) CacheStats() rescache.Stats { return s.cache.Stats() }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain refuses new work, lets in-flight cells finish, marks queued
// cells' jobs retriable, and waits for the workers to exit. An accepted
// job is never lost: it ends done, failed, canceled — or retriable, and
// a retriable job's content-addressed ID resubmitted to a restarted
// server rebuilds the identical results.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.mu.Unlock()

	rest := s.queue.Close()
	// Collect drained cells per job, then finalize each job once. Only
	// cells still pending count — a cell stolen back by a coordinator
	// already left this job's accounting.
	drained := make(map[*job][]int)
	for _, t := range rest {
		drained[t.j] = append(drained[t.j], t.cell)
	}
	for j, cells := range drained {
		if n := j.markRetriable(cells); n > 0 {
			s.metrics.jobsRetriable.Inc()
			s.publishJob(j)
			s.notifyJob(j, j.snapshot())
			if s.opts.Log != nil {
				s.opts.Log.Info("drain: job marked retriable", "job", j.id, "cells_not_run", n)
			}
		}
	}
	s.metrics.queueDepth.Set(0)
	s.wg.Wait()
}

// suiteFor returns the (cached) suite for these params.
func (s *Server) suiteFor(p Params) *core.Suite {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.suiteUse++
	for _, e := range s.suites {
		if e.params == p {
			e.used = s.suiteUse
			return e.suite
		}
	}
	opts := core.DefaultOptions()
	opts.Params = workload.Params{Scale: p.Scale, Seed: p.Seed}
	e := &suiteEntry{params: p, suite: core.NewSuite(opts), used: s.suiteUse}
	if len(s.suites) >= maxSuites {
		oldest := 0
		for i, se := range s.suites {
			if se.used < s.suites[oldest].used {
				oldest = i
			}
		}
		s.suites[oldest] = s.suites[len(s.suites)-1]
		s.suites = s.suites[:len(s.suites)-1]
	}
	s.suites = append(s.suites, e)
	return e.suite
}

// resolveParams fills nil request params with the library defaults.
func resolveParams(p *Params) Params {
	if p != nil {
		return *p
	}
	d := workload.DefaultParams()
	return Params{Scale: d.Scale, Seed: d.Seed}
}

// normalizeEngine maps "" to the default engine label.
func normalizeEngine(e string) string {
	if e == "" {
		return EngineGuarded
	}
	return e
}

// errServerDraining is returned for work refused because of shutdown.
var errServerDraining = errors.New("server is draining")

// enqueue pushes a job's cells onto the queue atomically (all or none).
func (s *Server) enqueue(j *job) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errServerDraining
	}
	s.mu.Unlock()

	now := time.Now()
	ts := make([]task, len(j.cells))
	for i := range j.cells {
		ts[i] = task{j: j, cell: i, enq: now}
	}
	if !s.queue.TryPushAll(ts) {
		s.metrics.rejectedFull.Inc()
		if s.Draining() {
			return errServerDraining
		}
		return errQueueFull
	}
	s.metrics.jobsAccepted.Inc()
	s.metrics.queueDepth.Set(int64(s.queue.Depth()))
	return nil
}

// submitSweep registers a sweep job by its content-addressed ID and
// enqueues its cells. An identical sweep already known (live or kept
// terminal) is returned as-is with existing=true — resubmission is a
// lookup, which is exactly what a drained client does after a restart.
func (s *Server) submitSweep(j *job) (reg *job, existing bool, err error) {
	reg, existing = s.jobs.add(j)
	if existing {
		// A previously drained job is resubmittable: forget the stale
		// record and queue the fresh one.
		reg.mu.Lock()
		retriable := reg.status == StatusRetriable
		reg.mu.Unlock()
		if !retriable {
			return reg, true, nil
		}
		s.jobs.remove(reg.id)
		reg, existing = s.jobs.add(j)
		if existing {
			return reg, true, nil
		}
	}
	if err := s.enqueue(j); err != nil {
		s.jobs.remove(j.id)
		return nil, false, err
	}
	return j, false, nil
}

// errQueueFull is the backpressure signal behind HTTP 429.
var errQueueFull = errors.New("job queue is full")

// worker drains the queue until it closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		t, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.metrics.queueDepth.Set(int64(s.queue.Depth()))
		s.runTask(t)
	}
}

// runTask executes one cell of one job and records the outcome; the last
// cell finalizes the job and its metrics. A cell stolen while it sat in
// the queue is skipped — its thief runs it elsewhere.
func (s *Server) runTask(t task) {
	if !t.j.begin(t.cell) {
		return
	}
	s.metrics.queueWait.Observe(time.Since(t.enq).Microseconds())
	if s.spans != nil && t.j.trace.Valid() {
		s.spans.AddSpan(t.j.trace, s.opts.ServiceName, "queue wait", t.enq, time.Now())
	}
	s.mu.Lock()
	s.inFlight++
	s.metrics.inFlight.Set(int64(s.inFlight))
	s.mu.Unlock()

	r := s.runCell(t.j, t.cell)

	s.mu.Lock()
	s.inFlight--
	s.metrics.inFlight.Set(int64(s.inFlight))
	s.mu.Unlock()

	last := t.j.finishCell(t.cell, r, s.metrics)
	s.publishCell(t.j, t.cell, r)
	if last {
		s.publishJob(t.j)
		s.notifyJob(t.j, t.j.snapshot())
	}
}

// resolveCell turns a cellSpec into its trace and simulation spec
// (placement, config and, for an ONLINE/… placement name, the online
// options), reusing the suite's derivations so the served cell is
// identical to the library cell. The probe, watchdog and engine are
// per-run and left for simulate.
func (s *Server) resolveCell(params Params, c cellSpec) (*trace.Trace, sim.Spec, error) {
	suite := s.suiteFor(params)
	tr, err := suite.Trace(c.app)
	if err != nil {
		return nil, sim.Spec{}, err
	}
	// An ONLINE/… name — requested, or the label of an explicit
	// placement — carries the cell's online adaptive configuration.
	name := c.algorithm
	if c.explicitPlacement != nil {
		name = c.explicitPlacement.Algorithm
	}
	online, isOnline, err := advise.ParseOnlineAlgorithm(name)
	if err != nil {
		return nil, sim.Spec{}, err
	}
	var spec sim.Spec
	switch {
	case c.explicitPlacement != nil:
		spec.Placement = &placement.Placement{
			Algorithm: c.explicitPlacement.Algorithm,
			Clusters:  c.explicitPlacement.Clusters,
		}
	case isOnline:
		// Place with the spec's static seed, then rename the placement to
		// the canonical ONLINE name so every cache, store and shard key
		// carries the full online configuration. Copy before renaming —
		// the suite shares placements across cells.
		seed, err := suite.Place(c.app, online.SeedAlgorithm(), c.procs)
		if err != nil {
			return nil, sim.Spec{}, err
		}
		onl := *seed
		onl.Algorithm = online.String()
		spec.Placement = &onl
	default:
		if spec.Placement, err = suite.Place(c.app, c.algorithm, c.procs); err != nil {
			return nil, sim.Spec{}, err
		}
	}
	if isOnline {
		if spec.Online, err = online.Options(); err != nil {
			return nil, sim.Spec{}, err
		}
	}
	if c.explicitConfig != nil {
		spec.Config = *c.explicitConfig
	} else if spec.Config, err = suite.Config(c.app, c.procs, c.infinite); err != nil {
		return nil, sim.Spec{}, err
	}
	return tr, spec, nil
}

// runCell executes one cell: request-tier lookup for a named cell, then
// resolveAndRun on a miss, recording the request's cell key once it is
// served. When tracing is on, the cell and its lookups and engine run
// each become spans on the job's trace.
func (s *Server) runCell(j *job, cell int) cellResultInternal {
	c := j.cells[cell]
	var cellSpan *obs.ActiveSpan
	sctx := obs.SpanContext{}
	if s.spans != nil && j.trace.Valid() {
		cellSpan = s.spans.Start(j.trace, s.opts.ServiceName, "cell "+cellLabel(c))
		defer cellSpan.End()
		sctx = cellSpan.Context()
	}

	if s.opts.BeforeCell != nil {
		s.opts.BeforeCell()
	}
	// Request tier: a named cell served before is found by its request
	// fields, without resolving it. A request whose result is no longer
	// cached or stored resolves like any other.
	req, named := requestKeyOf(j.params, c)
	if named {
		if key, res := s.requestLookup(req, sctx); res != nil {
			cellSpan.SetNote("request hit")
			return cellResultInternal{key: key.String(), cached: true, res: res}
		}
	}
	r, key := s.resolveAndRun(j, cell, sctx, cellSpan)
	if named && r.err == nil {
		s.requestPut(req, key)
	}
	return r
}

// resolveAndRun serves a cell by its placement-level key: resolve,
// cache lookup, single-flight dedup, store probe, guarded simulation,
// cache and store fill. It returns the cell key with the result.
func (s *Server) resolveAndRun(j *job, cell int, sctx obs.SpanContext, cellSpan *obs.ActiveSpan) (cellResultInternal, rescache.Key) {
	c := j.cells[cell]
	tr, spec, err := s.resolveCell(j.params, c)
	if err != nil {
		return cellResultInternal{err: err}, rescache.Key{}
	}
	key := rescache.KeyOf(j.params.Scale, j.params.Seed, c.app, core.PlacementKey(spec.Placement), spec.Config, c.engine)
	keyHex := key.String()

	if s.cellStarted != nil {
		s.cellStarted <- keyHex
		<-s.cellGate
	}

	// The cache counts hits/misses/evictions authoritatively; /metrics
	// mirrors its counters at scrape time.
	lookupStart := time.Now()
	res := s.cache.Get(key)
	if s.spans != nil && sctx.Valid() {
		s.spans.AddSpan(sctx, s.opts.ServiceName, "cache lookup", lookupStart, time.Now())
	}
	if res != nil {
		cellSpan.SetNote("cache hit")
		return cellResultInternal{key: keyHex, cached: true, res: res}, key
	}

	// Single-flight: concurrent identical misses share one simulation.
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.metrics.sfShared.Inc()
		waitStart := time.Now()
		<-f.done
		if s.spans != nil && sctx.Valid() {
			s.spans.AddSpan(sctx, s.opts.ServiceName, "singleflight wait", waitStart, time.Now())
		}
		if f.err != nil {
			return cellResultInternal{key: keyHex, err: f.err}, key
		}
		return cellResultInternal{key: keyHex, res: f.res}, key
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	// Durable tier: a store hit is served (and promoted into the memory
	// cache) without simulating — this is how a restarted server warm
	// starts from disk.
	if res := s.storeGet(key, sctx); res != nil {
		f.res = res
		close(f.done)
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		s.cache.Put(key, res)
		cellSpan.SetNote("store hit")
		return cellResultInternal{key: keyHex, cached: true, res: res}, key
	}

	var engineSpan *obs.ActiveSpan
	if s.spans != nil && sctx.Valid() {
		engineSpan = s.spans.Start(sctx, s.opts.ServiceName, "engine "+c.engine)
	}
	t0 := time.Now()
	res, counters, err := s.simulate(j, c, cell, tr, spec)
	if err == nil && res != nil {
		if sec := time.Since(t0).Seconds(); sec > 0 {
			s.metrics.engineRate.Observe(int64(float64(res.ExecTime) / sec))
		}
	}
	engineSpan.End()
	if s.opts.MinCellTime > 0 {
		if rest := s.opts.MinCellTime - time.Since(t0); rest > 0 {
			time.Sleep(rest)
		}
	}

	f.res, f.err = res, err
	close(f.done)
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()

	if err != nil {
		s.metrics.simFailures.Inc()
		return cellResultInternal{key: keyHex, err: err}, key
	}
	s.cache.Put(key, res)
	s.storePut(key, res)
	return cellResultInternal{key: keyHex, res: res, counters: counters}, key
}

// simulate runs the resolved cell on its engine under the job's guard.
// When the job has a live SSE subscriber and sample streaming is
// configured, a Sampler rides along and its windows are published as
// "sample" events after the run (zero cost for unwatched jobs: the probe
// is nil and the engines skip every hook).
func (s *Server) simulate(j *job, c cellSpec, cell int, tr *trace.Trace, spec sim.Spec) (*sim.Result, *obs.Counter, error) {
	spec.Guard = sim.Guard{MaxSteps: s.opts.MaxSteps, Cancel: &j.cancel}
	var timer *time.Timer
	if s.opts.RequestTimeout > 0 {
		timer = time.AfterFunc(s.opts.RequestTimeout, func() { j.cancel.Store(true) })
	}
	var counters *obs.Counter
	if c.counters {
		counters = &obs.Counter{}
		spec.Probe = counters
	}
	var sampler *obs.Sampler
	if s.bus != nil && s.opts.StreamWindow > 0 && s.bus.Subscribers(jobTopic(j.id)) > 0 {
		sampler = obs.NewSampler(s.opts.StreamWindow)
		spec.Probe = obs.Multi(spec.Probe, sampler)
	}

	s.metrics.simRuns.Inc()
	run := s.guard.Run // EngineGuarded
	switch c.engine {
	case EngineFast:
		run = sim.Run
	case EngineReference:
		run, spec.Engine = sim.Run, sim.ReferenceEngine
	}
	res, err := run(tr, spec)
	if timer != nil {
		timer.Stop()
	}
	if s.bus != nil && sampler != nil && err == nil {
		for i, w := range sampler.Samples() {
			s.bus.Publish(jobTopic(j.id), "sample", SampleEvent{
				Job: j.id, Cell: cell, Window: uint64(i), Sample: w,
			})
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return res, counters, nil
}

// Health assembles the /healthz view.
func (s *Server) Health() HealthResponse {
	s.mu.Lock()
	draining := s.draining
	inFlight := s.inFlight
	s.mu.Unlock()

	cs := s.cache.Stats()
	h := HealthResponse{
		Status:        "ok",
		Workers:       s.opts.Workers,
		QueueDepth:    s.queue.Depth(),
		QueueCapacity: s.opts.QueueDepth,
		InFlight:      inFlight,
		Degraded:      s.guard.Degraded(),
		Cache: CacheHealth{
			Entries: cs.Entries, Capacity: cs.Capacity,
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			HitRate: cs.HitRate(),
		},
		Jobs: JobsHealth{
			Accepted:  s.metrics.jobsAccepted.Value(),
			Completed: s.metrics.jobsCompleted.Value(),
			Failed:    s.metrics.jobsFailed.Value(),
			Retriable: s.metrics.jobsRetriable.Value(),
			Canceled:  s.metrics.jobsCanceled.Value(),
		},
	}
	if h.Degraded {
		h.Status = "degraded"
		if rep := s.guard.Report(); rep != nil {
			h.Divergence = rep.String()
		}
	}
	if s.opts.Store != nil {
		ss := s.opts.Store.Stats()
		h.Store = &StoreHealth{
			Entries:        ss.Entries,
			SealedSegments: ss.SealedSegments,
			Hits:           ss.Hits,
			Misses:         ss.Misses,
			Puts:           ss.Puts,
			Quarantined:    ss.Quarantined,
			HitRate:        ss.HitRate(),
		}
	}
	if s.opts.Webhooks != nil {
		ws := s.opts.Webhooks.Stats()
		h.Webhooks = &WebhookHealth{
			Pending:   ws.Pending,
			Delivered: ws.Delivered,
			Failed:    ws.Failed,
			Retries:   ws.Retries,
		}
	}
	if draining {
		h.Status = "draining"
	}
	return h
}

// SweepJobID derives the content-addressed ID of a sweep: the same sweep
// (params, dimensions, engine) always maps to the same ID, on this
// server, a restarted one, or a cluster coordinator — a drained client
// simply resubmits, and coordinator and worker agree on job identity.
func SweepJobID(params Params, req *SweepRequest, engine string) string {
	parts := make([]string, 0, 5+len(req.Apps)+len(req.Algorithms)+len(req.Procs))
	parts = append(parts,
		fmt.Sprintf("scale=%g", params.Scale),
		fmt.Sprintf("seed=%d", params.Seed),
		fmt.Sprintf("infinite=%t", req.Infinite),
		fmt.Sprintf("engine=%s", engine),
	)
	parts = append(parts, "apps")
	parts = append(parts, req.Apps...)
	parts = append(parts, "algs")
	parts = append(parts, req.Algorithms...)
	parts = append(parts, "procs")
	for _, p := range req.Procs {
		parts = append(parts, fmt.Sprintf("%d", p))
	}
	sum := rescache.SumStrings("mtserve-sweep-v1", parts...)
	return "sw-" + sum.String()[:16]
}

// sweepCells expands a sweep request into its deterministic cell order
// (apps outermost, procs innermost).
func sweepCells(req *SweepRequest, engine string) []cellSpec {
	cells := make([]cellSpec, 0, req.Cells())
	for _, app := range req.Apps {
		for _, alg := range req.Algorithms {
			for _, p := range req.Procs {
				cells = append(cells, cellSpec{
					app: app, algorithm: alg, procs: p,
					infinite: req.Infinite, engine: engine,
				})
			}
		}
	}
	return cells
}
