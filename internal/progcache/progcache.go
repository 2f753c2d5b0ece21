// Package progcache is a compile-once cache for MiniC sources. The front
// end is deterministic, so the O0 compile of a source is an immutable
// artifact: a Cache compiles it once, lazily builds its struct-of-arrays
// view (ir.Flatten) at most once, and shares both. Read-only consumers
// (embedders, distance analyses, antivirus scoring, the bytecode compiler)
// walk the shared flat tables; consumers that mutate the module with
// passes or obfuscations get a private copy thawed from them (Thaw).
//
// One Cache type serves two policies. Default pins every entry for the
// life of the process: the harness replays one fixed dataset across every
// game, evader, embedding and model, so pinning is the point. A Cache
// built with New(n) keeps at most n entries, evicting the least recently
// used: each serve.Server owns one, because any client can POST an endless
// stream of distinct sources. Neither policy retains a failed compile.
package progcache

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
)

// DefaultUntrustedCap is the slot bound of a server's cache: large enough
// that a loadgen replaying a working set re-hits it, small enough that
// hostile traffic tops out in the tens of megabytes.
const DefaultUntrustedCap = 512

// counters is where one cache policy reports. They live in the obs
// registry ("progcache.*"), so run manifests, /metricz and the expvar
// endpoint see them; Snapshot serves a struct view over the same metrics.
type counters struct {
	hits, misses, evictions *obs.Counter
	entries                 *obs.Gauge
}

var (
	// pinned counts for Default, which never evicts.
	pinned = counters{
		hits:    obs.GetCounter("progcache.hits"),
		misses:  obs.GetCounter("progcache.misses"),
		entries: obs.GetGauge("progcache.entries"),
	}
	// bounded counts for every cache built by New, summed over all of
	// them: a process normally runs one server.
	bounded = counters{
		hits:      obs.GetCounter("progcache.untrusted.hits"),
		misses:    obs.GetCounter("progcache.untrusted.misses"),
		evictions: obs.GetCounter("progcache.untrusted.evictions"),
		entries:   obs.GetGauge("progcache.untrusted.entries"),
	}

	// The compile, flatten and thaw figures are shared by both policies.
	compileTimer = obs.GetTimer("progcache.compile")
	flatHits     = obs.GetCounter("progcache.flat.hits")
	flatMisses   = obs.GetCounter("progcache.flat.misses")
	flattenTimer = obs.GetTimer("progcache.flatten")
	thawHits     = obs.GetCounter("progcache.thaw.hits")
	thawTimer    = obs.GetTimer("progcache.thaw")
)

// Cache maps source text to its compiled master module and flat view. The
// key is the source alone: the module name only labels printed IR, so one
// master serves callers that name their modules differently. It is safe
// for concurrent use.
type Cache struct {
	bound int // 0: never evict
	ctr   *counters

	mu    sync.Mutex
	index map[string]*list.Element // values are *entry
	order list.List                // front = most recently used
}

// entry is one cache slot. The sync.Onces serialize the first compile of a
// source and the first flatten of its master (singleflight) without
// holding the cache lock.
type entry struct {
	src  string
	once sync.Once
	mod  *ir.Module
	err  error

	flatOnce sync.Once
	flat     *ir.Flat
}

// Default is the pinned cache the harness compiles through.
var Default = newCache(0, &pinned)

// New returns a cache that keeps at most bound entries, evicting the least
// recently used one past that (0 never evicts). Its counters are the
// progcache.untrusted.* metrics.
func New(bound int) *Cache { return newCache(bound, &bounded) }

func newCache(bound int, ctr *counters) *Cache {
	return &Cache{bound: bound, ctr: ctr, index: make(map[string]*list.Element)}
}

// lookup returns the slot for src with its master compiled. A failed
// compile leaves the cache: every caller that shared it gets the error,
// and the next lookup compiles again. Entries whose compile is still
// running may briefly take the cache past its bound.
func (c *Cache) lookup(src, name string) (*entry, error) {
	c.mu.Lock()
	el, hit := c.index[src]
	if hit {
		c.order.MoveToFront(el)
	} else {
		el = c.order.PushFront(&entry{src: src})
		c.index[src] = el
		c.ctr.entries.Add(1)
	}
	c.mu.Unlock()
	e := el.Value.(*entry)
	e.once.Do(func() {
		c.ctr.misses.Inc()
		start := time.Now()
		e.mod, e.err = minic.CompileSource(src, name)
		compileTimer.Observe(time.Since(start))
		c.mu.Lock()
		defer c.mu.Unlock()
		if e.err != nil {
			if c.index[src] == el { // not evicted or replaced meanwhile
				c.removeLocked(el)
			}
			return
		}
		// Evict only for a compile that succeeded, so garbage sources
		// cannot push good entries out.
		for c.bound > 0 && c.order.Len() > c.bound {
			c.removeLocked(c.order.Back())
			c.ctr.evictions.Inc()
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	if hit {
		c.ctr.hits.Inc()
	}
	return e, nil
}

func (c *Cache) removeLocked(el *list.Element) {
	c.order.Remove(el)
	delete(c.index, el.Value.(*entry).src)
	c.ctr.entries.Add(-1)
}

// Flat returns the cached struct-of-arrays view of src's master module,
// flattening it on first use. Like the master itself the view is shared
// and strictly read-only: any number of embed/featurize/scan/compile
// consumers stream the same tables concurrently.
func (c *Cache) Flat(src, name string) (*ir.Flat, error) {
	e, err := c.lookup(src, name)
	if err != nil {
		return nil, err
	}
	built := false
	e.flatOnce.Do(func() {
		built = true
		flatMisses.Inc()
		start := time.Now()
		e.flat = ir.Flatten(e.mod)
		flattenTimer.Observe(time.Since(start))
	})
	if !built {
		flatHits.Inc()
	}
	return e.flat, nil
}

// Thaw returns a freshly built module for src that the caller owns and may
// mutate freely. It thaws the cached flat view (ir.Thaw), which allocates
// the whole module out of a handful of arenas; every module-level cell of
// the difftest campaign pins a thawed copy bit-for-bit against a deep clone
// of the master.
func (c *Cache) Thaw(src, name string) (*ir.Module, error) {
	fl, err := c.Flat(src, name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m := ir.Thaw(fl)
	thawTimer.Observe(time.Since(start))
	thawHits.Inc()
	m.Name = name
	return m, nil
}

// CompileShared returns Default's master module for src. The caller MUST
// NOT mutate it (no passes, no obfuscations) — it is shared by every other
// caller and backs the cached flat view. Use it for read-only consumers:
// embeddings, n-gram scans, compile checks.
func CompileShared(src, name string) (*ir.Module, error) {
	e, err := Default.lookup(src, name)
	if err != nil {
		return nil, err
	}
	return e.mod, nil
}

// CompileFlat is Default.Flat.
func CompileFlat(src, name string) (*ir.Flat, error) { return Default.Flat(src, name) }

// CompileThaw is Default.Thaw.
func CompileThaw(src, name string) (*ir.Module, error) { return Default.Thaw(src, name) }

// Reset drops every entry of Default (and with it every cached flat view),
// so a long campaign's memory stays flat. The counters keep running: every
// reader takes deltas.
func Reset() {
	Default.mu.Lock()
	defer Default.mu.Unlock()
	for el := Default.order.Front(); el != nil; el = Default.order.Front() {
		Default.removeLocked(el)
	}
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits, Misses and Entries are Default's.
	Hits, Misses, Entries int64
	// FlatHits/FlatMisses count Flat calls served from an existing flat
	// view vs. ones that built it.
	FlatHits, FlatMisses int64
	// ThawHits counts mutable copies rebuilt from a cached flat view.
	ThawHits int64
	// The Untrusted* fields sum the caches built by New (one per server).
	UntrustedHits, UntrustedMisses     int64
	UntrustedEntries, UntrustedEvicted int64
	// Total time spent compiling on misses, flattening on flat misses and
	// thawing mutable copies.
	CompileTime time.Duration
	FlattenTime time.Duration
	ThawTime    time.Duration
}

// Snapshot returns the current counters.
func Snapshot() Stats {
	return Stats{
		Hits:             pinned.hits.Value(),
		Misses:           pinned.misses.Value(),
		Entries:          pinned.entries.Value(),
		FlatHits:         flatHits.Value(),
		FlatMisses:       flatMisses.Value(),
		ThawHits:         thawHits.Value(),
		UntrustedHits:    bounded.hits.Value(),
		UntrustedMisses:  bounded.misses.Value(),
		UntrustedEntries: bounded.entries.Value(),
		UntrustedEvicted: bounded.evictions.Value(),
		CompileTime:      compileTimer.Total(),
		FlattenTime:      flattenTimer.Total(),
		ThawTime:         thawTimer.Total(),
	}
}
