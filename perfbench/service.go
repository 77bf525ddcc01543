package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	mtsim "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// truth is the library's answer for every cell a service workload asks
// for, computed untimed through the mtsim facade before any daemon runs.
type truth struct {
	json map[cell][]byte
	refs map[cell]uint64
	// lib measured the computation; on a traced run its spans give the
	// library layers' share of the cells the daemons serve.
	lib *lib
}

// groundTruth computes every cell through the facade: build, analyze,
// sharing, placement (with the server's RANDOM seed rule) and Simulate on
// the app's machine.
func groundTruth(cells []cell, params mtsim.Params, traced bool) (*truth, error) {
	l := newLib(params, traced)
	gt := &truth{json: make(map[cell][]byte), refs: make(map[cell]uint64), lib: l}
	type prepared struct {
		tr   *mtsim.Trace
		data *mtsim.SharingData
	}
	prep := make(map[string]prepared)
	start := time.Now()
	for _, c := range cells {
		p, ok := prep[c.app]
		if !ok {
			tr, data, err := l.prepare(c.app)
			if err != nil {
				return nil, err
			}
			p = prepared{tr, data}
			prep[c.app] = p
		}
		res, _, err := l.simulate(p.tr, p.data, c)
		if err != nil {
			return nil, err
		}
		data, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		gt.json[c] = data
		gt.refs[c] = res.Totals().Refs
	}
	if traced {
		l.finish("ground truth", start, time.Now())
	}
	return gt, nil
}

// check compares a served result with the library's, byte for byte in
// its JSON encoding (the wire form the client decoded).
func (gt *truth) check(rep *report, where string, c cell, got *mtsim.Result) {
	want, ok := gt.json[c]
	if !ok {
		rep.diverge("%s: %+v has no ground truth", where, c)
		return
	}
	data, err := json.Marshal(got)
	if err != nil || !bytes.Equal(data, want) {
		rep.diverge("%s: %s %s/%d differs from the library result", where, c.app, c.alg, c.procs)
	}
}

// sameResult reports whether two results have the same JSON encoding.
func sameResult(got, want *mtsim.Result) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("results differ (ExecTime %d vs %d)", got.ExecTime, want.ExecTime)
	}
	return nil
}

// libraryLayers fills the workload, analysis, placement and sim layers of
// a service workload's traced run from its ground-truth computation: the
// same cells the daemons resolve and simulate, measured in the library.
func libraryLayers(rep *report, gt *truth) {
	for name, v := range gt.lib.metrics() {
		rep.set(name, "", v)
	}
}

// daemonTelemetry is what a traced cycle reads from its daemons after the
// timed phases: spans, /metrics counters, /healthz and runtime stats.
type daemonTelemetry struct {
	metrics                      map[string]float64
	cacheHits, cacheMisses       float64
	storeHitRate                 float64
	gcCycles, gcPauseMs, allocMB float64
}

// collect reads a daemon's /metrics, /healthz and runtime statistics and
// adds them to dt.
func (dt *daemonTelemetry) collect(d *daemon) error {
	c := newClient(d.url)
	defer c.http.CloseIdleConnections()
	text, err := c.Metrics()
	if err != nil {
		return err
	}
	if dt.metrics == nil {
		dt.metrics = make(map[string]float64)
	}
	for k, v := range promMetrics(text) {
		dt.metrics[k] += v
	}
	h, err := c.Health()
	if err != nil {
		return err
	}
	dt.cacheHits += float64(h.Cache.Hits)
	dt.cacheMisses += float64(h.Cache.Misses)
	if h.Store != nil {
		dt.storeHitRate = h.Store.HitRate
	}
	gc, pause, alloc, err := d.memStats()
	if err != nil {
		return err
	}
	dt.gcCycles += gc
	dt.gcPauseMs += pause
	dt.allocMB += alloc
	return nil
}

// fetchSpans adds the daemon spans of each trace ID to t and returns the
// duration of each trace's root span (the daemon's own request span).
func fetchSpans(c *apiClient, t *tracer, ids []string) (map[string]time.Duration, error) {
	roots := make(map[string]time.Duration)
	for _, id := range ids {
		if id == "" {
			continue
		}
		spans, err := c.Spans(id)
		if err != nil {
			return nil, err
		}
		t.addDaemon(spans)
		roots[id] = rootDuration(spans)
	}
	return roots, nil
}

// rootDuration is the duration of the span whose parent is not among
// spans: the daemon's request span.
func rootDuration(spans []obs.Span) time.Duration {
	ids := make(map[string]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if !ids[s.Parent] {
			return time.Duration(s.DurUs) * time.Microsecond
		}
	}
	return 0
}

// serviceLayers fills the serve, store and runtime layers of a traced
// service run from its traced cycles' spans and telemetry. Span-derived
// times are each cycle's summed self time, like the library layers';
// serve.http_ms is per request and serve.queue_wait_ms per cell.
func serviceLayers(rep *report, spans [][]span, dt []daemonTelemetry, httpMs []float64) {
	var st []map[string]layerStat
	for _, s := range spans {
		st = append(st, selfTimes(s))
	}
	total := func(layer string) float64 {
		var xs []float64
		for _, s := range st {
			xs = append(xs, ms(s[layer].self))
		}
		return median(xs)
	}
	rep.set("serve.resolve_ms", "", total("serve.resolve"))
	rep.set("serve.cache_lookup_ms", "", total("serve.cache_lookup"))
	rep.set("serve.engine_ms", "", total("serve.engine"))
	rep.set("serve.singleflight_wait_ms", "", total("serve.singleflight_wait"))
	rep.set("store.lookup_ms", "", total("store.lookup"))
	if len(httpMs) > 0 {
		rep.set("serve.http_ms", "", median(httpMs))
	}
	per := func(f func(d daemonTelemetry) float64) float64 {
		var xs []float64
		for _, d := range dt {
			xs = append(xs, f(d))
		}
		return median(xs)
	}
	rep.set("serve.queue_wait_ms", "", per(func(d daemonTelemetry) float64 { return histMeanMs(d.metrics, "serve_queue_wait_us") }))
	rep.set("serve.cache_hit_rate", "", per(func(d daemonTelemetry) float64 {
		if d.cacheHits+d.cacheMisses == 0 {
			return 0
		}
		return d.cacheHits / (d.cacheHits + d.cacheMisses)
	}))
	rep.set("serve.sim_runs", "", per(func(d daemonTelemetry) float64 { return d.metrics["serve_sim_runs_total"] }))
	rep.set("runtime.gc_cycles", "", per(func(d daemonTelemetry) float64 { return d.gcCycles }))
	rep.set("runtime.gc_pause_ms", "", per(func(d daemonTelemetry) float64 { return d.gcPauseMs }))
	rep.set("runtime.alloc_mb", "", per(func(d daemonTelemetry) float64 { return d.allocMB }))
}

// warmLoop runs n closed-loop clients, each sending `each` requests
// over cells (starting at different offsets), and returns the request
// latencies and trace IDs. Replies are checked after the clients stop, so
// the check's CPU time does not compete with the daemon for the host.
func warmLoop(c *apiClient, gt *truth, rep *report, where string, cells []cell, params *serve.Params, n, each int) ([]time.Duration, []string) {
	type reply struct {
		cell cell
		res  *mtsim.Result
	}
	type out struct {
		lat     []time.Duration
		traces  []string
		replies []reply
		failed  int64
	}
	outs := make([]out, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := &outs[g]
			for i := 0; i < each; i++ {
				k := cells[(g*len(cells)/n+i)%len(cells)]
				t0 := time.Now()
				resp, err := c.Simulate(&serve.SimulateRequest{Params: params, App: k.app, Algorithm: k.alg, Procs: k.procs})
				lat := time.Since(t0)
				if err != nil {
					o.failed++
					continue
				}
				o.lat = append(o.lat, lat)
				o.traces = append(o.traces, resp.Trace)
				o.replies = append(o.replies, reply{k, resp.Result})
			}
		}(g)
	}
	wg.Wait()
	var lat []time.Duration
	var traces []string
	for _, o := range outs {
		lat = append(lat, o.lat...)
		traces = append(traces, o.traces...)
		rep.attempted += int64(each)
		rep.failed += o.failed
		for _, r := range o.replies {
			gt.check(rep, where, r.cell, r.res)
		}
	}
	return lat, traces
}

// spanPath is where a traced run writes its spans: beside the run
// directory, which is removed when the run ends.
func spanPath(b *bench, workload string) string {
	return filepath.Join(filepath.Dir(b.work), fmt.Sprintf("spans-%s-seed%d.json", workload, b.seed))
}
