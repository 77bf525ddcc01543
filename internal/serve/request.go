package serve

// The request-level result key. A named cell (app, algorithm, procs —
// no explicit placement or config) is a strict function of its request
// fields, so the server remembers which cell key each request resolved
// to and serves a repeat without resolving it again: no trace build, no
// analysis, no placement. The placement-level key (rescache.KeyOf)
// stays the result's identity; the request key only finds it.
//
// Two tiers hold the request → cell-key mapping. The memory tier is a
// bounded map. The durable tier is a small alias record in the result
// store, written after a named cell is first served, so a restarted
// daemon whose store holds every answer serves them without rebuilding
// the pipeline. Any doubt about an alias — missing, damaged, version
// skew, wrong request, or a cell key whose result is gone — is a miss,
// and the cell resolves as before.

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/rescache"
	"repro/internal/sim"
	"repro/internal/store"
)

// requestKeyVersion is the request key's domain label. The request key
// skips resolveCell, so it is only sound while resolution is a fixed
// function of the request fields: any change to workload generation,
// placement or config derivation must bump this label, or a restarted
// daemon would serve a stale alias. TestRequestKeyGolden pins the cell
// keys resolution produces so such a change fails loudly.
const requestKeyVersion = "mtserve-request-v1"

// RequestFields is the canonical encoding of a named cell's request
// fields, in order. The request key and the cluster's shard key both
// hash it, under different labels.
func RequestFields(params Params, app, algorithm string, procs int, infinite bool, engine string) []string {
	return []string{
		"scale=" + strconv.FormatFloat(params.Scale, 'g', -1, 64), // as %g
		"seed=" + strconv.FormatInt(params.Seed, 10),
		"app=" + app,
		"alg=" + algorithm,
		"procs=" + strconv.Itoa(procs),
		"infinite=" + strconv.FormatBool(infinite),
		"engine=" + engine,
	}
}

// requestKeyOf returns the request key of a named cell; ok is false for
// a cell with an explicit placement or config, which has no catalog
// identity and always resolves.
func requestKeyOf(params Params, c cellSpec) (key rescache.Key, ok bool) {
	if c.explicitPlacement != nil || c.explicitConfig != nil {
		return rescache.Key{}, false
	}
	return rescache.SumStrings(requestKeyVersion,
		RequestFields(params, c.app, c.algorithm, c.procs, c.infinite, c.engine)...), true
}

// requestIndex is the memory tier: request key → cell key, bounded, the
// oldest entry evicted first.
type requestIndex struct {
	mu    sync.Mutex
	cells map[rescache.Key]rescache.Key
	order []rescache.Key // insertion ring, len ≤ limit
	next  int            // ring slot the next insertion overwrites once full
	limit int
}

func newRequestIndex(limit int) *requestIndex {
	return &requestIndex{cells: make(map[rescache.Key]rescache.Key), limit: limit}
}

func (x *requestIndex) get(req rescache.Key) (rescache.Key, bool) {
	x.mu.Lock()
	key, ok := x.cells[req]
	x.mu.Unlock()
	return key, ok
}

func (x *requestIndex) put(req, key rescache.Key) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.cells[req]; ok {
		x.cells[req] = key
		return
	}
	if len(x.order) < x.limit {
		x.order = append(x.order, req)
	} else {
		delete(x.cells, x.order[x.next])
		x.order[x.next] = req
		x.next = (x.next + 1) % x.limit
	}
	x.cells[req] = key
}

// requestAliasVersion versions the alias envelope; a different version
// reads as a miss, like storedCellVersion.
const requestAliasVersion = 1

// requestAlias is the durable tier's record, stored under the request
// key. Req repeats the address it was stored under, so an alias is never
// followed from the wrong address.
type requestAlias struct {
	V   int    `json:"v"`
	Req string `json:"req"`
	Key string `json:"key"`
}

// decodeRequestAlias unwraps an alias read from address reqHex,
// verifying version and request identity, and returns its cell key.
func decodeRequestAlias(reqHex string, payload []byte) (rescache.Key, error) {
	var a requestAlias
	if err := json.Unmarshal(payload, &a); err != nil {
		return rescache.Key{}, err
	}
	if a.V != requestAliasVersion {
		return rescache.Key{}, fmt.Errorf("request alias version %d, want %d", a.V, requestAliasVersion)
	}
	if a.Req != reqHex {
		return rescache.Key{}, fmt.Errorf("request alias %s under address %s", a.Req, reqHex)
	}
	var key rescache.Key
	raw, err := hex.DecodeString(a.Key)
	if err != nil || len(raw) != len(key) {
		return rescache.Key{}, fmt.Errorf("request alias cell key %q is not a %d-byte hex key", a.Key, len(key))
	}
	copy(key[:], raw)
	return key, nil
}

// requestLookup serves a request from the tier: request key → cell key
// (memory index, then the store's alias record, promoted into memory on
// a hit) → result (memory cache, then store). One "request lookup" span
// covers the key lookups and the cache probe; a store read of the
// result gets its own "store lookup" span. A nil result is a miss.
func (s *Server) requestLookup(req rescache.Key, sctx obs.SpanContext) (rescache.Key, *sim.Result) {
	start := time.Now()
	key, ok := s.requests.get(req)
	if !ok && s.opts.Store != nil {
		if payload, found := s.opts.Store.Get(store.Key(req)); found {
			var err error
			if key, err = decodeRequestAlias(req.String(), payload); err == nil {
				ok = true
				s.requests.put(req, key)
			} else if s.opts.Log != nil {
				s.opts.Log.Warn("request alias unusable, resolving", "req", req.String(), "err", err.Error())
			}
		}
	}
	var res *sim.Result
	if ok {
		res = s.cache.Get(key)
	}
	if s.spans != nil && sctx.Valid() {
		s.spans.AddSpan(sctx, s.opts.ServiceName, "request lookup", start, time.Now())
	}
	if ok && res == nil {
		if res = s.storeGet(key, sctx); res != nil {
			s.cache.Put(key, res)
		}
	}
	return key, res
}

// requestPut records that request req resolved to cell key, in memory
// and, behind the cell's own result record, as a durable alias.
func (s *Server) requestPut(req, key rescache.Key) {
	s.requests.put(req, key)
	if s.opts.Store == nil {
		return
	}
	payload, err := json.Marshal(requestAlias{V: requestAliasVersion, Req: req.String(), Key: key.String()})
	if err == nil {
		err = s.opts.Store.Put(store.Key(req), payload)
	}
	if err != nil && s.opts.Log != nil {
		s.opts.Log.Warn("request alias put refused", "req", req.String(), "err", err.Error())
	}
}
