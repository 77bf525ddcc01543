package main

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed operation of a traced run: the benchmark's own spans
// around each facade call and request, and the daemons' spans fetched
// from /v1/trace. Layer names the per-layer bucket its self time goes to;
// structural spans leave it empty.
type span struct {
	ID     string    `json:"id"`
	Parent string    `json:"parent,omitempty"`
	Layer  string    `json:"layer,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	next  int
	spans []span
}

// newID returns a fresh span ID, for a span whose children are recorded
// before it ends.
func (t *tracer) newID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return "b" + strconv.Itoa(t.next)
}

// record stores one finished span under a given ID.
func (t *tracer) record(id, parent, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: end})
}

// add records one finished span and returns its ID.
func (t *tracer) add(parent, layer, name string, start, end time.Time) string {
	id := t.newID()
	t.record(id, parent, layer, name, start, end)
	return id
}

// addDaemon records spans fetched from a daemon, mapping each daemon span
// name onto a layer.
func (t *tracer) addDaemon(spans []obs.Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		start := time.UnixMicro(s.StartUs)
		t.spans = append(t.spans, span{
			ID: "d" + s.ID, Parent: "d" + s.Parent, Layer: daemonLayer(s.Name), Name: s.Service + ": " + s.Name,
			Start: start, End: start.Add(time.Duration(s.DurUs) * time.Microsecond),
		})
	}
}

// daemonLayer maps an mtserve/mtcoord span name onto a layer. The cell
// span's self time is the work it does outside its child spans: resolving
// the cell (trace build, analysis, sharing, placement) and bookkeeping.
func daemonLayer(name string) string {
	switch {
	case strings.HasPrefix(name, "cell "):
		return "serve.resolve"
	case name == "cache lookup":
		return "serve.cache_lookup"
	case name == "singleflight wait":
		return "serve.singleflight_wait"
	case name == "store lookup":
		return "store.lookup"
	case strings.HasPrefix(name, "engine "):
		return "serve.engine"
	}
	return ""
}

// layerStat is the summed self time and the span count of one layer.
type layerStat struct {
	self  time.Duration
	count int
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its child spans.
func selfTimes(spans []span) map[string]layerStat {
	children := make(map[string][]span)
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerStat)
	for _, s := range spans {
		if s.Layer == "" {
			continue
		}
		st := out[s.Layer]
		st.self += s.End.Sub(s.Start) - covered(s, children[s.ID])
		st.count++
		out[s.Layer] = st
	}
	return out
}

// covered returns how much of p's interval the union of kids covers.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Insertion sort: a span has a handful of children.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a.Before(ivs[j-1].a); j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.Before(end) {
			v.a = end
		}
		if v.b.After(v.a) {
			total += v.b.Sub(v.a)
			end = v.b
		}
	}
	return total
}

// write saves every recorded span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
