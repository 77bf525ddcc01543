package serve

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/serve/rescache"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestRequestKeyGolden pins, per application, a digest of the cell keys
// that resolveCell + rescache.KeyOf derive for every catalog algorithm
// (plus one ONLINE name) at 4 processors, finite and infinite caches.
// The request tier serves a named cell by its request fields without
// resolving it, so any change to workload generation, placement or
// config derivation must fail here. The fix is not only to re-pin: bump
// requestKeyVersion too, or a restarted daemon serves stale aliases.
func TestRequestKeyGolden(t *testing.T) {
	want := map[string]string{
		"Barnes-Hut":  "7d4589e01e2cbc35",
		"Cholesky":    "825696b5db0fdcdf",
		"FFT":         "49c584049010bb8d",
		"Fullconn":    "f9b0485d025384d8",
		"Gauss":       "3329dfe8f78a090c",
		"Grav":        "70d6770635484526",
		"Health":      "b391cbef43e35d7b",
		"LocusRoute":  "e5745053f9ea182d",
		"MP3D":        "99b43fdfc2ef6f03",
		"Patch":       "e33316336744791e",
		"Pverify":     "15ca9329a47ec8b8",
		"Topopt":      "8036f414317387a9",
		"Vandermonde": "44b1470ae12abbeb",
		"Water":       "c3777981578b5506",
	}
	s := NewServer(Options{Workers: 1, DisableTelemetry: true})
	defer s.Drain()
	params := Params{Scale: 0.1, Seed: 7}
	algs := append(placement.Names(), "ONLINE/COHERENCE@c=64,i=2000")
	got := map[string]string{}
	for _, app := range workload.Names() {
		var lines []string
		for _, alg := range algs {
			for _, infinite := range []bool{false, true} {
				c := cellSpec{app: app, algorithm: alg, procs: 4, infinite: infinite, engine: EngineGuarded}
				_, spec, err := s.resolveCell(params, c)
				if err != nil {
					t.Fatalf("%s/%s: %v", app, alg, err)
				}
				key := rescache.KeyOf(params.Scale, params.Seed, app, core.PlacementKey(spec.Placement), spec.Config, c.engine)
				lines = append(lines, fmt.Sprintf("%s inf=%t %s", alg, infinite, key))
			}
		}
		got[app] = rescache.SumStrings("request-key-golden", lines...).String()[:16]
		if got[app] != want[app] {
			t.Errorf("%s: cell keys digest %s, want %s; cells:\n  %s", app, got[app], want[app], strings.Join(lines, "\n  "))
		}
	}
	if t.Failed() {
		t.Logf("got: %#v", got)
	}
}

// requestSweep is the small named sweep the request-tier tests submit.
func requestSweep() *SweepRequest {
	return &SweepRequest{
		Params:     &testParams,
		Apps:       []string{"MP3D", "Water"},
		Algorithms: []string{"RANDOM", "SHARE-REFS", "LOAD-BAL"},
		Procs:      []int{2, 4},
	}
}

// freshSweep runs req on a fresh memory-only server: the oracle every
// request-tier case must match.
func freshSweep(t *testing.T, req *SweepRequest) JobStatus {
	t.Helper()
	_, ts := newTestServer(t, Options{Workers: 2})
	st := submitAndWait(t, ts.URL, req)
	if st.Status != StatusDone {
		t.Fatalf("fresh server: %+v", st)
	}
	return st
}

// sameResults requires got to carry fresh's keys and results, cell by
// cell.
func sameResults(t *testing.T, fresh, got JobStatus) {
	t.Helper()
	if got.Status != StatusDone {
		t.Fatalf("sweep ended %s: %s", got.Status, got.Error)
	}
	if len(got.Results) != len(fresh.Results) {
		t.Fatalf("cell counts differ: %d vs %d", len(got.Results), len(fresh.Results))
	}
	for i := range fresh.Results {
		if got.Results[i].Key != fresh.Results[i].Key {
			t.Errorf("cell %d key %s, fresh server %s", i, got.Results[i].Key, fresh.Results[i].Key)
		}
		if !reflect.DeepEqual(got.Results[i].Result, fresh.Results[i].Result) {
			t.Errorf("cell %d result differs from a fresh server's", i)
		}
	}
}

// openStore opens (or reopens) the store in dir, closed at cleanup.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// fillStore serves req once on a server over a store in dir and closes
// both, leaving results and aliases on disk.
func fillStore(t *testing.T, dir string, req *SweepRequest) JobStatus {
	t.Helper()
	st := openStore(t, dir)
	s := NewServer(Options{Workers: 2, Store: st})
	ts := httptest.NewServer(s.Handler())
	first := submitAndWait(t, ts.URL, req)
	ts.Close()
	s.Drain()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return first
}

// suitesBuilt reports how many workload suites the server has built.
func suitesBuilt(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.suites)
}

// TestRequestTierWarmRestart: a restarted server over a store holding
// every answer serves the whole sweep from request aliases — same keys,
// same results, cached, with no suite built and nothing simulated.
func TestRequestTierWarmRestart(t *testing.T) {
	fresh := freshSweep(t, requestSweep())
	dir := t.TempDir()
	sameResults(t, fresh, fillStore(t, dir, requestSweep()))

	s, ts := newTestServer(t, Options{Workers: 2, Store: openStore(t, dir)})
	second := submitAndWait(t, ts.URL, requestSweep())
	sameResults(t, fresh, second)
	for i, r := range second.Results {
		if !r.Cached {
			t.Errorf("cell %d not served cached after restart", i)
		}
	}
	if n := suitesBuilt(s); n != 0 {
		t.Errorf("restart built %d suites; want 0 (every cell a request hit)", n)
	}
	if runs := s.metrics.simRuns.Value(); runs != 0 {
		t.Errorf("restart ran %d simulations; want 0", runs)
	}

	// The saving is visible in the trace: a request lookup span and a
	// "request hit" cell note, and no resolve-side spans.
	var tsp TraceSpans
	if r := getJSON(t, ts.URL+"/v1/trace/"+second.Trace+"?format=spans", &tsp); r.StatusCode != 200 {
		t.Fatalf("trace export: status %d", r.StatusCode)
	}
	lookups, hits := 0, 0
	for _, sp := range tsp.Spans {
		if sp.Name == "request lookup" {
			lookups++
		}
		if strings.HasPrefix(sp.Name, "cell ") && sp.Note == "request hit" {
			hits++
		}
	}
	if lookups != len(second.Results) || hits != len(second.Results) {
		t.Errorf("trace has %d request lookups and %d request-hit cells, want %d each", lookups, hits, len(second.Results))
	}
}

// plantAlias writes an alias record for the named cell (app, alg,
// procs) of req straight into the store.
func plantAlias(t *testing.T, st *store.Store, app, alg string, procs int, alias requestAlias) rescache.Key {
	t.Helper()
	c := cellSpec{app: app, algorithm: alg, procs: procs, engine: EngineGuarded}
	req, ok := requestKeyOf(testParams, c)
	if !ok {
		t.Fatal("named cell has no request key")
	}
	if alias.Req == "" {
		alias.Req = req.String()
	}
	payload, err := json.Marshal(alias)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.Key(req), payload); err != nil {
		t.Fatal(err)
	}
	return req
}

// badAliasCase serves a store that holds only the MP3D/RANDOM/p2 cell,
// with a planted alias for MP3D/SHARE-REFS/p2, and requires the sweep
// to match a fresh server: a bad alias is a miss, never a wrong answer.
func badAliasCase(t *testing.T, alias func(other rescache.Key) requestAlias) {
	t.Helper()
	one := &SweepRequest{Params: &testParams, Apps: []string{"MP3D"}, Algorithms: []string{"RANDOM"}, Procs: []int{2}}
	two := &SweepRequest{Params: &testParams, Apps: []string{"MP3D"}, Algorithms: []string{"RANDOM", "SHARE-REFS"}, Procs: []int{2}}
	fresh := freshSweep(t, two)
	dir := t.TempDir()
	filled := fillStore(t, dir, one)
	var other rescache.Key
	if _, err := hex.Decode(other[:], []byte(filled.Results[0].Key)); err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir)
	plantAlias(t, st, "MP3D", "SHARE-REFS", 2, alias(other))
	s, ts := newTestServer(t, Options{Workers: 1, Store: st})
	got := submitAndWait(t, ts.URL, two)
	sameResults(t, fresh, got)
	if runs := s.metrics.simRuns.Value(); runs != 1 {
		t.Errorf("%d simulations; want 1 (the cell behind the bad alias)", runs)
	}
	// The resolved cell is now in the memory tier under its true key.
	again := submitAndWait(t, ts.URL, &SweepRequest{Params: &testParams, Apps: []string{"MP3D"}, Algorithms: []string{"SHARE-REFS", "RANDOM"}, Procs: []int{2}})
	if again.Results[0].Key != fresh.Results[1].Key || !again.Results[0].Cached {
		t.Errorf("repeat after a bad alias: key %s cached %t, want %s cached", again.Results[0].Key, again.Results[0].Cached, fresh.Results[1].Key)
	}
}

// TestRequestTierDanglingAlias: an alias whose result record is missing
// falls back to resolving the cell.
func TestRequestTierDanglingAlias(t *testing.T) {
	badAliasCase(t, func(rescache.Key) requestAlias {
		return requestAlias{V: requestAliasVersion, Key: rescache.SumStrings("no such cell").String()}
	})
}

// TestRequestTierWrongReq: an alias whose req is not the address it was
// read from is not followed, even to a result that exists.
func TestRequestTierWrongReq(t *testing.T) {
	badAliasCase(t, func(other rescache.Key) requestAlias {
		return requestAlias{V: requestAliasVersion, Req: rescache.SumStrings("another request").String(), Key: other.String()}
	})
}

// TestRequestTierUnknownVersion: an alias of another envelope version is
// not followed, even to a result that exists.
func TestRequestTierUnknownVersion(t *testing.T) {
	badAliasCase(t, func(other rescache.Key) requestAlias {
		return requestAlias{V: requestAliasVersion + 1, Key: other.String()}
	})
}

// TestRequestTierAliasDecode: every malformed alias decodes as an
// error; a well-formed one round-trips.
func TestRequestTierAliasDecode(t *testing.T) {
	req, key := rescache.SumStrings("req"), rescache.SumStrings("key")
	good, _ := json.Marshal(requestAlias{V: requestAliasVersion, Req: req.String(), Key: key.String()})
	if got, err := decodeRequestAlias(req.String(), good); err != nil || got != key {
		t.Fatalf("round trip: %s, %v", got, err)
	}
	for name, payload := range map[string]string{
		"garbage":     "{garbage",
		"short key":   fmt.Sprintf(`{"v":1,"req":%q,"key":"abcd"}`, req),
		"long key":    fmt.Sprintf(`{"v":1,"req":%q,"key":"%s00"}`, req, key),
		"non-hex key": fmt.Sprintf(`{"v":1,"req":%q,"key":%q}`, req, strings.Repeat("zz", 32)),
	} {
		if _, err := decodeRequestAlias(req.String(), []byte(payload)); err == nil {
			t.Errorf("%s alias accepted", name)
		}
	}
}

// TestRequestTierExplicitBypass: cells with an explicit placement or
// config have no request key; they leave no alias and no index entry,
// and still match a fresh server.
func TestRequestTierExplicitBypass(t *testing.T) {
	suite := libSuite()
	pl, err := suite.Place("MP3D", "SHARE-REFS", 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := suite.Config("MP3D", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	spec := ConfigSpecOf(cfg)
	reqs := []SimulateRequest{
		{Params: &testParams, App: "MP3D", Placement: &PlacementSpec{Algorithm: pl.Algorithm, Clusters: pl.Clusters}, Procs: 4},
		{Params: &testParams, App: "MP3D", Algorithm: "SHARE-REFS", Config: &spec},
	}
	_, freshTS := newTestServer(t, Options{Workers: 1})
	st := openStore(t, t.TempDir())
	s, ts := newTestServer(t, Options{Workers: 1, Store: st})
	for i, req := range reqs {
		_, want := postJSON(t, freshTS.URL+"/v1/simulate", req)
		for pass := 0; pass < 2; pass++ {
			_, got := postJSON(t, ts.URL+"/v1/simulate", req)
			var w, g SimulateResponse
			if err := json.Unmarshal(want, &w); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(got, &g); err != nil {
				t.Fatal(err)
			}
			if g.Key != w.Key || !reflect.DeepEqual(g.Result, w.Result) {
				t.Errorf("explicit request %d pass %d differs from a fresh server", i, pass)
			}
		}
	}
	s.requests.mu.Lock()
	indexed := len(s.requests.cells)
	s.requests.mu.Unlock()
	if indexed != 0 {
		t.Errorf("explicit cells left %d request-index entries, want 0", indexed)
	}
	if n := st.Len(); n != 1 {
		t.Errorf("store holds %d records, want 1 (the one shared result, no alias)", n)
	}
}

// TestRequestIndexBounded: the memory tier holds at most its limit,
// evicting the oldest entry first.
func TestRequestIndexBounded(t *testing.T) {
	x := newRequestIndex(2)
	k := func(i int) rescache.Key { return rescache.SumStrings("k", fmt.Sprint(i)) }
	x.put(k(1), k(10))
	x.put(k(2), k(20))
	x.put(k(1), k(11)) // update in place, no eviction
	x.put(k(3), k(30))
	if _, ok := x.get(k(1)); ok {
		t.Error("oldest entry survived past the bound")
	}
	for _, i := range []int{2, 3} {
		if got, ok := x.get(k(i)); !ok || got != k(i*10) {
			t.Errorf("entry %d lost or wrong", i)
		}
	}
	if len(x.cells) != 2 || len(x.order) != 2 {
		t.Errorf("index holds %d entries in a ring of %d, want 2", len(x.cells), len(x.order))
	}
}
