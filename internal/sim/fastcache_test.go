package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/placement"
	"repro/internal/trace"
)

// newFastCache builds a fast-engine cache for cfg.
func newFastCache(cfg Config) *fastCache {
	c := &fastCache{}
	c.init(cfg)
	return c
}

// residentBlocks lists the fast cache's valid lines, like the reference
// cache's residentBlocks.
func (c *fastCache) residentBlocks() map[uint64]lineState {
	out := make(map[uint64]lineState)
	for _, pg := range c.pages {
		for _, l := range pg {
			if l.state != invalid {
				out[l.tag] = l.state
			}
		}
	}
	return out
}

// materialized counts the pages a fast cache has allocated.
func (c *fastCache) materialized() int {
	n := 0
	for _, pg := range c.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// cacheConfig is a one-processor config with the given capacity and
// associativity (0 = direct-mapped).
func cacheConfig(size, ways int) Config {
	cfg := DefaultConfig(1)
	cfg.CacheSize = size
	cfg.Associativity = ways
	return cfg
}

// TestFastCacheMatchesReference drives the reference cache and the paged
// fast cache through the same random operation sequence and requires
// every answer to agree. The block pool straddles page boundaries (sets
// pageSets-1 and pageSets), crowds a few sets past their associativity
// and scatters the rest over the whole cache, so most pages stay
// untouched.
func TestFastCacheMatchesReference(t *testing.T) {
	configs := map[string]Config{
		"3-way 96KB":      cacheConfig(96<<10, 3),
		"8MB Table 5":     cacheConfig(InfiniteCacheSize, 0),
		"4-way 32KB":      cacheConfig(32<<10, 4),
		"2-way 300 sets":  cacheConfig(300*2*DefaultLineSize, 2),
		"direct 100 sets": cacheConfig(100*DefaultLineSize, 0),
	}
	for name, cfg := range configs {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rng := rand.New(rand.NewSource(int64(len(name))))
		ref, fast := newCache(cfg), newFastCache(cfg)
		nsets := fast.nsets

		var pool []uint64
		for _, set := range []uint64{0, pageSets - 1, pageSets, nsets - 1} {
			for k := uint64(0); k < 5; k++ {
				pool = append(pool, set%nsets+k*nsets)
			}
		}
		for i := 0; i < 40; i++ {
			pool = append(pool, uint64(rng.Int63n(1<<30)))
		}

		for op := 0; op < 20000; op++ {
			b := pool[rng.Intn(len(pool))]
			switch rng.Intn(6) {
			case 0, 1:
				if r, f := ref.lookup(b), fast.lookup(b); r != f {
					t.Fatalf("%s op %d: lookup(%d) reference %v, fast %v", name, op, b, r, f)
				}
			case 2:
				st := lineState(1 + rng.Intn(2))
				ctx := int32(rng.Intn(3))
				if ref.lookup(b) != invalid {
					fast.lookup(b) // keep LRU order in step; fills only follow misses
					continue
				}
				fast.lookup(b)
				rv, rd, re := ref.fill(b, st, ctx)
				fv, fd, fe := fast.fill(b, st, ctx)
				if rv != fv || rd != fd || re != fe {
					t.Fatalf("%s op %d: fill(%d) reference (%d,%v,%v), fast (%d,%v,%v)", name, op, b, rv, rd, re, fv, fd, fe)
				}
			case 3:
				by := int32(rng.Intn(4))
				rp, rd := ref.invalidate(b, by)
				fp, fd := fast.invalidate(b, by)
				if rp != fp || rd != fd {
					t.Fatalf("%s op %d: invalidate(%d) reference (%v,%v), fast (%v,%v)", name, op, b, rp, rd, fp, fd)
				}
			case 4:
				if ref.lookup(b) == invalid {
					fast.lookup(b)
					continue
				}
				fast.lookup(b)
				st := lineState(1 + rng.Intn(2))
				ref.setState(b, st)
				fast.setState(b, st)
			case 5:
				ctx := int32(rng.Intn(3))
				if r, f := ref.classifyMiss(b, ctx), fast.classifyMiss(b, ctx); r != f {
					t.Fatalf("%s op %d: classifyMiss(%d) reference %v, fast %v", name, op, b, r, f)
				}
				rb, rok := ref.invalidator(b)
				fb, fok := fast.invalidator(b)
				if rb != fb || rok != fok {
					t.Fatalf("%s op %d: invalidator(%d) reference (%d,%v), fast (%d,%v)", name, op, b, rb, rok, fb, fok)
				}
			}
		}
		if r, f := ref.residentBlocks(), fast.residentBlocks(); !reflect.DeepEqual(r, f) {
			t.Errorf("%s: resident blocks differ: reference %d, fast %d", name, len(r), len(f))
		}
		if cfg.CacheSize == InfiniteCacheSize && fast.materialized() > len(pool) {
			t.Errorf("%s: %d of %d pages materialized for %d distinct blocks", name, fast.materialized(), len(fast.pages), len(pool))
		}
	}
}

// TestFastCacheUntouchedPage: lookup, invalidate and setState on a page
// no fill has landed in read as invalid, exactly like a zeroed page, and
// do not materialize it; a fill at a page's last set leaves the next page
// untouched.
func TestFastCacheUntouchedPage(t *testing.T) {
	cfg := cacheConfig(96<<10, 3) // 1024 sets: 4 pages of 256 sets
	ref, fast := newCache(cfg), newFastCache(cfg)
	if len(fast.pages) != 4 {
		t.Fatalf("%d pages, want 4", len(fast.pages))
	}
	b := uint64(3*pageSets + 7) // set 775, page 3
	if fast.lookup(b) != invalid || ref.lookup(b) != invalid {
		t.Error("lookup on an untouched page found a line")
	}
	if present, dirty := fast.invalidate(b, 1); present || dirty {
		t.Error("invalidate on an untouched page found a line")
	}
	for name, c := range map[string]interface{ setState(uint64, lineState) }{"reference": ref, "fast": fast} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: setState on an untouched page did not panic", name)
				}
			}()
			c.setState(b, modified)
		}()
	}
	if n := fast.materialized(); n != 0 {
		t.Fatalf("reads materialized %d pages", n)
	}

	// Fill the last set of page 0 past its associativity: evictions stay
	// within the set and page 1 is never allocated.
	last := uint64(pageSets - 1)
	for k := uint64(0); k < 4; k++ {
		blk := last + k*fast.nsets
		rv, rd, re := ref.fill(blk, shared, 0)
		fv, fd, fe := fast.fill(blk, shared, 0)
		if rv != fv || rd != fd || re != fe {
			t.Fatalf("fill %d: reference (%d,%v,%v), fast (%d,%v,%v)", k, rv, rd, re, fv, fd, fe)
		}
	}
	if fast.pages[0] == nil || fast.pages[1] != nil || fast.materialized() != 1 {
		t.Fatalf("page boundary: materialized %d pages (page 0 %v, page 1 %v)", fast.materialized(), fast.pages[0] != nil, fast.pages[1] != nil)
	}
	next := uint64(pageSets) // set 256: first set of page 1
	if fast.lookup(next) != invalid {
		t.Error("first set of the next page reads as valid")
	}
	ref.fill(next, modified, 1)
	fast.fill(next, modified, 1)
	if fast.materialized() != 2 || fast.lookup(next) != modified || fast.lookup(last+3*fast.nsets) != shared {
		t.Error("fill at a page's first set disturbed its neighbour")
	}
	if !reflect.DeepEqual(ref.residentBlocks(), fast.residentBlocks()) {
		t.Error("resident blocks differ across the page boundary")
	}
}

// TestEnginesAgreePagedCaches runs both engines on a shared-heavy trace
// whose addresses spread over many pages, under the 3-way 96 KB and the
// 8 MB Table 5 configurations.
func TestEnginesAgreePagedCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const threads = 6
	tr := trace.New("paged", threads)
	for i := 0; i < threads; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < 1500; j++ {
			r.Compute(rng.Intn(4))
			addr := trace.SharedBase + uint64(rng.Intn(1<<16))*DefaultLineSize
			if rng.Intn(2) == 0 {
				addr = trace.SharedBase + uint64(rng.Intn(64))*trace.WordSize
			}
			if rng.Intn(3) == 0 {
				r.Store(addr)
			} else {
				r.Load(addr)
			}
		}
	}
	pl := &placement.Placement{Algorithm: "PAGED", Clusters: [][]int{{0, 1}, {2, 3}, {4, 5}}}
	for _, cfg := range []Config{cacheConfig(96<<10, 3), cacheConfig(InfiniteCacheSize, 0)} {
		cfg.Processors = 3
		ref, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: ReferenceEngine})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := Run(tr, Spec{Config: cfg, Placement: pl, Engine: FastEngine})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, fast) {
			t.Errorf("%d-byte %d-way: engines diverge: reference exec %d, fast exec %d", cfg.CacheSize, cfg.Associativity, ref.ExecTime, fast.ExecTime)
		}
	}
}
