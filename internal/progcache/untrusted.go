package progcache

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
)

// The untrusted tier bounds what wire-originated sources can pin in memory.
// The main cache deliberately never evicts: the harness replays a fixed
// dataset, so every entry is known-useful and pinning it is the point. The
// serving path breaks that assumption — any client can POST an endless
// stream of distinct sources to /v1/classify, and each one (including ones
// that fail to compile) would permanently occupy a process-global slot.
// CompileFlatUntrusted/CompileThawUntrusted route those compiles through a
// small LRU instead: sources the harness already pinned are served from the
// main cache for free, everything else competes for a bounded number of
// slots, and failed compiles are never retained at all.

// DefaultUntrustedCap is the default slot bound for the untrusted tier:
// large enough that a loadgen replaying a working set re-hits it, small
// enough that hostile traffic tops out in the tens of megabytes.
const DefaultUntrustedCap = 512

type untrustedEntry struct {
	src  string
	flat *ir.Flat
}

var (
	utMu    sync.Mutex
	utCap   = DefaultUntrustedCap
	utIndex = make(map[string]*list.Element)
	utOrder = list.New() // front = most recently used

	utHits      = obs.GetCounter("progcache.untrusted.hits")
	utMisses    = obs.GetCounter("progcache.untrusted.misses")
	utEvictions = obs.GetCounter("progcache.untrusted.evictions")
	utEntries   = obs.GetGauge("progcache.untrusted.entries")
)

// SetUntrustedCap bounds the untrusted tier to n entries; 0 (or negative)
// disables retention entirely, turning every untrusted compile into a
// build-and-discard. Shrinking below the current size evicts oldest-first
// immediately.
func SetUntrustedCap(n int) {
	utMu.Lock()
	defer utMu.Unlock()
	utCap = n
	evictOverCapLocked()
}

// UntrustedCap returns the current slot bound.
func UntrustedCap() int {
	utMu.Lock()
	defer utMu.Unlock()
	return utCap
}

// ResetUntrusted empties the tier and zeroes its counters (tests; also part
// of Reset).
func ResetUntrusted() {
	utMu.Lock()
	defer utMu.Unlock()
	utIndex = make(map[string]*list.Element)
	utOrder.Init()
	utEntries.Set(0)
	utHits.Reset()
	utMisses.Reset()
	utEvictions.Reset()
}

func evictOverCapLocked() {
	for utOrder.Len() > utCap && utOrder.Len() > 0 {
		oldest := utOrder.Back()
		utOrder.Remove(oldest)
		delete(utIndex, oldest.Value.(*untrustedEntry).src)
		utEvictions.Inc()
	}
	utEntries.Set(int64(utOrder.Len()))
}

// peekPinned returns the main cache's settled, successful entry for src
// without inserting or compiling anything — the untrusted tier's fast path
// for sources the harness already pinned.
func peekPinned(src string) (*entry, bool) {
	e, ok := cache.Load(src)
	if !ok {
		return nil, false
	}
	ent := e.(*entry)
	if !ent.ready.Load() || ent.err != nil {
		return nil, false
	}
	return ent, true
}

// lookupUntrusted returns src's flat view from the LRU tier, or nil on
// miss. Bumps recency on hit.
func lookupUntrusted(src string) *ir.Flat {
	utMu.Lock()
	defer utMu.Unlock()
	el, ok := utIndex[src]
	if !ok {
		return nil
	}
	utOrder.MoveToFront(el)
	return el.Value.(*untrustedEntry).flat
}

// insertUntrusted adds a freshly built flat view to the tier, evicting
// oldest-first past the cap. A concurrent racer that inserted the same
// source first wins; the loser's view is dropped. Unlike the pinned cache
// there is no singleflight: two concurrent compiles of one unseen source
// waste a compile, not a global lock.
func insertUntrusted(src string, fl *ir.Flat) {
	utMu.Lock()
	defer utMu.Unlock()
	if utCap <= 0 {
		return
	}
	if el, ok := utIndex[src]; ok {
		utOrder.MoveToFront(el)
		return
	}
	utIndex[src] = utOrder.PushFront(&untrustedEntry{src: src, flat: fl})
	evictOverCapLocked()
}

// CompileFlatUntrusted is CompileFlat for wire-originated sources, backed
// by the bounded LRU tier (or the main cache, if the source is already
// pinned there). The returned view is shared and read-only.
func CompileFlatUntrusted(src, name string) (*ir.Flat, error) {
	if !enabled.Load() {
		return CompileFlat(src, name) // same build-fresh path
	}
	if ent, ok := peekPinned(src); ok {
		// Already pinned by the harness: reuse the main cache's flat view
		// (and its singleflight flatten) rather than duplicating it here.
		utHits.Inc()
		return entFlat(ent), nil
	}
	if fl := lookupUntrusted(src); fl != nil {
		utHits.Inc()
		return fl, nil
	}
	utMisses.Inc()
	start := time.Now()
	mod, err := minic.CompileSource(src, name)
	compileTimer.Observe(time.Since(start))
	if err != nil {
		// Failed compiles are never retained: a slot per distinct garbage
		// source would let a hostile client churn the whole tier for free.
		return nil, err
	}
	fstart := time.Now()
	fl := ir.Flatten(mod)
	flattenTimer.Observe(time.Since(fstart))
	insertUntrusted(src, fl)
	return fl, nil
}

// CompileThawUntrusted is CompileThaw for wire-originated sources: the
// caller gets a private mutable module thawed from the flat view that
// CompileFlatUntrusted serves. With the cache disabled it returns a fresh
// front-end compile.
func CompileThawUntrusted(src, name string) (*ir.Module, error) {
	if !enabled.Load() {
		return minic.CompileSource(src, name)
	}
	fl, err := CompileFlatUntrusted(src, name)
	if err != nil {
		return nil, err
	}
	return thawModule(fl, name), nil
}

func thawModule(fl *ir.Flat, name string) *ir.Module {
	start := time.Now()
	m := ir.Thaw(fl)
	thawTimer.Observe(time.Since(start))
	thawHits.Inc()
	m.Name = name
	return m
}
