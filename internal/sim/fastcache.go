package sim

// fastCache is the fast engine's data cache. It mirrors the reference
// cache's observable behaviour bit for bit (same LRU order, same eviction
// choice, same departure ledger) but indexes sets with a mask when the
// set count is a power of two — always true for the paper's capacities —
// and takes a single-way path for the direct-mapped configuration the
// paper simulates, so the hit path performs no division, no slicing and
// no allocation.
//
// Line storage is materialised in pages of pageSets whole sets, allocated
// by the first fill that lands in a page. A run therefore pays only for
// the sets its working set touches: the paper's 8 MB "infinite" caches
// (Table 5) would otherwise zero 4 MB per processor per run. A page that
// was never filled reads as all-invalid to lookup, invalidate and
// setState, which is exactly what a zeroed page would read as.
type fastCache struct {
	lineShift uint
	nsets     uint64
	// setMask is nsets-1 when nsets is a power of two, else 0 (fall back
	// to modulo).
	setMask uint64
	ways    int
	// pages[i] holds sets [i*pageSets, (i+1)*pageSets), ways lines per set
	// in LRU order; nil until first filled. Pages hold whole sets because
	// the associativity need not be a power of two.
	pages [][]line

	infinite  bool
	infStates map[uint64]lineState

	// gone records, per block ever resident, why it left; identical
	// semantics to the reference cache.
	gone map[uint64]goneReason
}

// pageSetShift sizes a cache page: 256 sets, 4 KB of lines when
// direct-mapped.
const (
	pageSetShift = 8
	pageSets     = 1 << pageSetShift
)

func (c *fastCache) init(cfg Config) {
	c.lineShift = cfg.lineShift()
	c.gone = make(map[uint64]goneReason)
	if cfg.InfiniteCache {
		c.infinite = true
		c.infStates = make(map[uint64]lineState)
		return
	}
	c.ways = cfg.Associativity
	if c.ways <= 0 {
		c.ways = 1
	}
	c.nsets = uint64(cfg.CacheSize / (cfg.LineSize * c.ways))
	if c.nsets&(c.nsets-1) == 0 {
		c.setMask = c.nsets - 1
	}
	c.pages = make([][]line, (c.nsets+pageSets-1)>>pageSetShift)
}

// materialize allocates page i on the first fill that lands in it. It is
// the cache's only allocation after init and runs at most once per page
// per run, so it stays off the per-event hot path.
func (c *fastCache) materialize(i uint64) {
	sets := c.nsets - i<<pageSetShift
	if sets > pageSets {
		sets = pageSets
	}
	c.pages[i] = make([]line, sets*uint64(c.ways))
}

//mtlint:hotpath
func (c *fastCache) block(addr uint64) uint64 { return addr >> c.lineShift }

// setIndex maps a block to its set number.
//
//mtlint:hotpath
func (c *fastCache) setIndex(block uint64) uint64 {
	if c.setMask != 0 {
		return block & c.setMask
	}
	return block % c.nsets
}

// set returns the ways of the block's set in LRU order, or nil when the
// set's page was never filled (every way invalid).
//
//mtlint:hotpath
func (c *fastCache) set(block uint64) []line {
	s := c.setIndex(block)
	pg := c.pages[s>>pageSetShift]
	if pg == nil {
		return nil
	}
	off := (s & (pageSets - 1)) * uint64(c.ways)
	return pg[off : off+uint64(c.ways)]
}

// line returns the block's line in a direct-mapped cache, or nil when its
// page was never filled.
//
//mtlint:hotpath
func (c *fastCache) line(block uint64) *line {
	s := c.setIndex(block)
	pg := c.pages[s>>pageSetShift]
	if pg == nil {
		return nil
	}
	return &pg[s&(pageSets-1)]
}

// fillSet is set for a fill: it materialises the set's page first.
//
//mtlint:hotpath
func (c *fastCache) fillSet(block uint64) []line {
	if set := c.set(block); set != nil {
		return set
	}
	c.materialize(c.setIndex(block) >> pageSetShift)
	return c.set(block)
}

// lookup returns the state of the block (invalid if absent) and promotes
// it to MRU when present.
//
//mtlint:hotpath
func (c *fastCache) lookup(block uint64) lineState {
	if c.infinite {
		return c.infStates[block]
	}
	if c.ways == 1 {
		if l := c.line(block); l != nil && l.state != invalid && l.tag == block {
			return l.state
		}
		return invalid
	}
	set := c.set(block)
	for i := range set {
		if set[i].state != invalid && set[i].tag == block {
			st := set[i].state
			touch(set, i)
			return st
		}
	}
	return invalid
}

// classifyMiss explains a miss on block by context ctx, using the ledger.
//
//mtlint:hotpath
func (c *fastCache) classifyMiss(block uint64, ctx int32) MissKind {
	g, seen := c.gone[block]
	switch {
	case !seen:
		return Compulsory
	case g.invalidated:
		return InvalidationMiss
	case g.by == ctx:
		return ConflictIntra
	default:
		return ConflictInter
	}
}

// invalidator returns the processor that invalidated block, and true, when
// the block's last departure was an invalidation.
//
//mtlint:hotpath
func (c *fastCache) invalidator(block uint64) (int32, bool) {
	g, seen := c.gone[block]
	if seen && g.invalidated {
		return g.by, true
	}
	return 0, false
}

// fill installs block with the given state on behalf of context ctx,
// attributing any eviction to ctx exactly like the reference cache.
//
//mtlint:hotpath
func (c *fastCache) fill(block uint64, st lineState, ctx int32) (victim uint64, dirty, evicted bool) {
	if c.infinite {
		c.infStates[block] = st
		return 0, false, false
	}
	set := c.fillSet(block)
	if c.ways == 1 {
		l := &set[0]
		if l.state != invalid {
			victim = l.tag
			dirty = l.state == modified
			evicted = true
			c.gone[victim] = goneReason{by: ctx}
		}
		*l = line{tag: block, state: st}
		return victim, dirty, evicted
	}
	way := -1
	for i := range set {
		if set[i].state == invalid {
			way = i
			break
		}
	}
	if way == -1 {
		way = len(set) - 1
		victim = set[way].tag
		dirty = set[way].state == modified
		evicted = true
		c.gone[victim] = goneReason{by: ctx}
	}
	set[way] = line{tag: block, state: st}
	touch(set, way)
	return victim, dirty, evicted
}

// setState changes the state of a resident block (upgrade or downgrade).
//
//mtlint:hotpath
func (c *fastCache) setState(block uint64, st lineState) {
	if c.infinite {
		if c.infStates[block] == invalid {
			panic("sim: setState on non-resident block")
		}
		c.infStates[block] = st
		return
	}
	if c.ways == 1 {
		if l := c.line(block); l != nil && l.state != invalid && l.tag == block {
			l.state = st
			return
		}
		panic("sim: setState on non-resident block")
	}
	set := c.set(block)
	for i := range set {
		if set[i].state != invalid && set[i].tag == block {
			set[i].state = st
			return
		}
	}
	panic("sim: setState on non-resident block")
}

// invalidate removes block if resident, recording the invalidating
// processor.
//
//mtlint:hotpath
func (c *fastCache) invalidate(block uint64, byProc int32) (present, dirty bool) {
	if c.infinite {
		st := c.infStates[block]
		if st == invalid {
			return false, false
		}
		delete(c.infStates, block)
		c.gone[block] = goneReason{invalidated: true, by: byProc}
		return true, st == modified
	}
	if c.ways == 1 {
		if l := c.line(block); l != nil && l.state != invalid && l.tag == block {
			dirty = l.state == modified
			l.state = invalid
			c.gone[block] = goneReason{invalidated: true, by: byProc}
			return true, dirty
		}
		return false, false
	}
	set := c.set(block)
	for i := range set {
		if set[i].state != invalid && set[i].tag == block {
			dirty = set[i].state == modified
			set[i].state = invalid
			c.gone[block] = goneReason{invalidated: true, by: byProc}
			return true, dirty
		}
	}
	return false, false
}
