package progcache

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
)

const testSrc = `
int main() {
	int s = 0;
	for (int i = 0; i < 10; i++) s += i * i;
	return s;
}`

// srcFor builds a distinct valid program per index, so each one occupies
// (or competes for) its own slot.
func srcFor(i int) string {
	return fmt.Sprintf("int main() { int x; x = %d; return x; }", i)
}

// badFor builds a distinct program that fails to parse.
func badFor(i int) string { return fmt.Sprintf("int main( { %d", i) }

// size reports how many entries c holds.
func size(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// flatOf returns c's flat view of src. Tests on private caches tell hits
// from recompiles by the view's identity: a hit returns the same pointer,
// an evicted or never-retained source comes back as a new one.
func flatOf(t *testing.T, c *Cache, src string) *ir.Flat {
	t.Helper()
	fl, err := c.Flat(src, "m")
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// delta is the change in the counters since before.
func delta(before Stats) Stats {
	now := Snapshot()
	return Stats{
		Hits:             now.Hits - before.Hits,
		Misses:           now.Misses - before.Misses,
		Entries:          now.Entries - before.Entries,
		FlatHits:         now.FlatHits - before.FlatHits,
		FlatMisses:       now.FlatMisses - before.FlatMisses,
		ThawHits:         now.ThawHits - before.ThawHits,
		UntrustedHits:    now.UntrustedHits - before.UntrustedHits,
		UntrustedMisses:  now.UntrustedMisses - before.UntrustedMisses,
		UntrustedEntries: now.UntrustedEntries - before.UntrustedEntries,
		UntrustedEvicted: now.UntrustedEvicted - before.UntrustedEvicted,
		ThawTime:         now.ThawTime - before.ThawTime,
	}
}

// The tests on Default and on the process-wide counters run serially; Go
// starts the parallel ones, which each own a private cache, only after
// them.

func TestCompileHitsAndMisses(t *testing.T) {
	Reset()
	before := Snapshot()
	m1, err := CompileThaw(testSrc, "a")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := CompileThaw(testSrc, "b")
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(before); d.Misses != 1 || d.Hits != 1 {
		t.Fatalf("want 1 miss + 1 hit, got %+v", d)
	}
	if st := Snapshot(); st.Entries != 1 {
		t.Fatalf("want 1 entry, got %d", st.Entries)
	}
	if m1 == m2 {
		t.Fatal("CompileThaw returned the same module twice; copies must be private")
	}
	if m1.Name != "a" || m2.Name != "b" {
		t.Fatalf("copy names not applied: %q / %q", m1.Name, m2.Name)
	}
}

// TestResetKeepsCounters: Reset drops Default's entries but leaves the
// counters running, so run manifests that take deltas across a Reset still
// see the compiles before it.
func TestResetKeepsCounters(t *testing.T) {
	Reset()
	before := Snapshot()
	if _, err := CompileFlat(testSrc, "a"); err != nil {
		t.Fatal(err)
	}
	Reset()
	if d := delta(before); d.Misses != 1 || d.FlatMisses != 1 {
		t.Fatalf("Reset lost the counters: %+v", d)
	}
	if st := Snapshot(); st.Entries != 0 || size(Default) != 0 {
		t.Fatalf("Reset left %d entries (%d in the map)", st.Entries, size(Default))
	}
}

// TestErrorsNotRetained: a failed compile leaves no entry behind, so the
// next lookup of the same source compiles again.
func TestErrorsNotRetained(t *testing.T) {
	Reset()
	before := Snapshot()
	bad := "int main() { return x_undefined; }"
	for i := 0; i < 2; i++ {
		if _, err := CompileThaw(bad, "bad"); err == nil {
			t.Fatal("expected a compile error")
		}
	}
	if d := delta(before); d.Misses != 2 || d.Hits != 0 {
		t.Fatalf("each failed lookup should compile once, got %+v", d)
	}
	if st := Snapshot(); st.Entries != 0 {
		t.Fatalf("failed compile retained: %d entries", st.Entries)
	}
}

func TestCompileThawMatchesClone(t *testing.T) {
	Reset()
	before := Snapshot()
	ref, err := minic.CompileSource(testSrc, "m")
	if err != nil {
		t.Fatal(err)
	}
	th, err := CompileThaw(testSrc, "m")
	if err != nil {
		t.Fatal(err)
	}
	if th.String() != ref.String() {
		t.Fatalf("thawed copy prints differently from a fresh compile:\n--- compile ---\n%s\n--- thaw ---\n%s", ref, th)
	}
	if err := th.Verify(); err != nil {
		t.Fatalf("thawed copy fails verification: %v", err)
	}
	d := delta(before)
	if d.ThawHits != 1 {
		t.Fatalf("want 1 thaw hit, got %+v", d)
	}
	if d.FlatMisses != 1 {
		t.Fatalf("thaw should have built the flat view once, got %+v", d)
	}
	if d.ThawTime <= 0 {
		t.Fatal("thaw timer did not advance")
	}
}

func TestCompileThawIsolation(t *testing.T) {
	Reset()
	shared, err := CompileShared(testSrc, "s")
	if err != nil {
		t.Fatal(err)
	}
	before := shared.String()
	th, err := CompileThaw(testSrc, "c")
	if err != nil {
		t.Fatal(err)
	}
	th.Functions[0].Blocks = nil
	th.Name = "wrecked"
	if got := shared.String(); got != before {
		t.Fatal("mutating a CompileThaw copy changed the shared master")
	}
	// The cached flat view must be reusable after the vandalism too.
	th2, err := CompileThaw(testSrc, "s")
	if err != nil {
		t.Fatal(err)
	}
	if got := th2.String(); got != before {
		t.Fatal("mutating a CompileThaw copy corrupted the cached flat view")
	}
}

// TestUntrustedCounters pins what /metricz and perfbench read: caches
// built by New report into progcache.untrusted.*, never into Default's
// counters, and the set of progcache metrics is fixed.
func TestUntrustedCounters(t *testing.T) {
	before := Snapshot()
	c := New(2)
	for _, src := range []string{srcFor(0), srcFor(0), srcFor(1), srcFor(2)} {
		flatOf(t, c, src) // miss, hit, miss, miss + evict srcFor(0)
	}
	if _, err := c.Thaw(badFor(0), "m"); err == nil {
		t.Fatal("garbage source compiled")
	}
	d := delta(before)
	if d.UntrustedHits != 1 || d.UntrustedMisses != 4 || d.UntrustedEvicted != 1 || d.UntrustedEntries != 2 {
		t.Fatalf("untrusted hits/misses/evicted/entries = %d/%d/%d/%d, want 1/4/1/2",
			d.UntrustedHits, d.UntrustedMisses, d.UntrustedEvicted, d.UntrustedEntries)
	}
	if d.Hits != 0 || d.Misses != 0 || d.Entries != 0 {
		t.Fatalf("a bounded cache moved Default's counters: %+v", d)
	}

	var names []string
	for _, n := range obs.Capture().Names() {
		if strings.HasPrefix(n, "progcache.") {
			names = append(names, n)
		}
	}
	want := "progcache.compile progcache.entries progcache.flat.hits progcache.flat.misses " +
		"progcache.flatten progcache.hits progcache.misses progcache.thaw progcache.thaw.hits " +
		"progcache.untrusted.entries progcache.untrusted.evictions progcache.untrusted.hits " +
		"progcache.untrusted.misses"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("progcache metrics:\n got %s\nwant %s", got, want)
	}
}

// TestUntrustedTierIsBounded is the regression test for unbounded growth
// on the serving path: n distinct sources through a cache of the given
// bound leave exactly min(bound, n) entries (all n when the bound is 0),
// the most recent of which hit without compiling.
func TestUntrustedTierIsBounded(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ bound, n, kept int }{
		{bound: 1, n: 3, kept: 1},
		{bound: 4, n: 10, kept: 4},
		{bound: 0, n: 10, kept: 10},
	} {
		t.Run(fmt.Sprintf("bound=%d", tc.bound), func(t *testing.T) {
			t.Parallel()
			c := New(tc.bound)
			views := make([]*ir.Flat, tc.n)
			for i := range views {
				views[i] = flatOf(t, c, srcFor(i))
			}
			if got := size(c); got != tc.kept {
				t.Fatalf("entries = %d, want %d", got, tc.kept)
			}
			for i := tc.n - 1; i >= tc.n-tc.kept; i-- {
				if flatOf(t, c, srcFor(i)) != views[i] {
					t.Fatalf("recent source %d was recompiled", i)
				}
			}
			if tc.kept < tc.n && flatOf(t, c, srcFor(0)) == views[0] {
				t.Fatal("the oldest source survived past the bound")
			}
		})
	}
}

// TestLRUOrder: a hit refreshes an entry, so the next insert evicts the
// least recently used one rather than the oldest inserted.
func TestLRUOrder(t *testing.T) {
	t.Parallel()
	c := New(3)
	a, b, cc := flatOf(t, c, srcFor(0)), flatOf(t, c, srcFor(1)), flatOf(t, c, srcFor(2))
	flatOf(t, c, srcFor(0)) // refresh a: b is now least recently used
	d := flatOf(t, c, srcFor(3))
	for _, kept := range []struct {
		i    int
		view *ir.Flat
	}{{0, a}, {2, cc}, {3, d}} {
		if flatOf(t, c, srcFor(kept.i)) != kept.view {
			t.Fatalf("source %d was evicted", kept.i)
		}
	}
	if flatOf(t, c, srcFor(1)) == b {
		t.Fatal("the least recently used source survived")
	}
}

// TestUntrustedFailuresNeverRetained: a hostile stream of non-compiling
// sources churns zero slots — each failure is rejected without occupying
// an entry or evicting a good one from a full cache.
func TestUntrustedFailuresNeverRetained(t *testing.T) {
	t.Parallel()
	const full = 4
	for _, bound := range []int{0, full} {
		t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
			t.Parallel()
			c := New(bound)
			good := make([]*ir.Flat, full)
			for i := range good {
				good[i] = flatOf(t, c, srcFor(i))
			}
			for i := 0; i < 20; i++ {
				var err error
				if i%2 == 0 {
					_, err = c.Flat(badFor(i/2), "m") // every source fails twice
				} else {
					_, err = c.Thaw(badFor(i/2), "m")
				}
				if err == nil {
					t.Fatal("garbage source compiled")
				}
			}
			if got := size(c); got != full {
				t.Fatalf("entries = %d after garbage storm, want %d", got, full)
			}
			for i, view := range good {
				if flatOf(t, c, srcFor(i)) != view {
					t.Fatalf("good entry %d did not survive the garbage storm", i)
				}
			}
		})
	}
}

// TestUntrustedThawMatchesClone: every thaw is a private module that
// prints like a fresh front-end compile, on a pinned and a bounded cache.
func TestUntrustedThawMatchesClone(t *testing.T) {
	t.Parallel()
	for _, bound := range []int{0, 4} {
		t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
			t.Parallel()
			c := New(bound)
			ref, err := minic.CompileSource(testSrc, "m")
			if err != nil {
				t.Fatal(err)
			}
			th, err := c.Thaw(testSrc, "m")
			if err != nil {
				t.Fatal(err)
			}
			th.Functions[0].Blocks = nil // vandalize the first copy
			th1, err := c.Thaw(testSrc, "w")
			if err != nil {
				t.Fatal(err)
			}
			if th == th1 || th1.Name != "w" {
				t.Fatal("thaw did not return a private, renamed copy")
			}
			th1.Name = "m"
			if th1.String() != ref.String() {
				t.Fatal("thaw diverged from a fresh compile after a copy was mutated")
			}
			if err := th1.Verify(); err != nil {
				t.Fatalf("thawed copy fails verification: %v", err)
			}
		})
	}
}

func TestConcurrentSingleflight(t *testing.T) {
	t.Parallel()
	c := New(4)
	const goroutines = 16
	var wg sync.WaitGroup
	views := make([]*ir.Flat, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				fl, err := c.Flat(testSrc, "p")
				if err != nil || (views[g] != nil && fl != views[g]) {
					errs[g] = fmt.Errorf("goroutine %d, call %d: view changed or %v", g, i, err)
					return
				}
				views[g] = fl
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if views[g] != views[0] {
			t.Fatal("concurrent lookups of one source compiled it more than once")
		}
	}
}

// TestUntrustedConcurrentChurn is the -race gate for eviction: concurrent
// hits, misses and evictions over a tiny bound, with failing sources whose
// compiles race their own eviction.
func TestUntrustedConcurrentChurn(t *testing.T) {
	t.Parallel()
	c := New(2)
	const workers, perWorker = 8, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := (w + i) % 12
				src, bad := srcFor(k), k >= 10
				if bad {
					src = badFor(k)
				}
				var err error
				if i%2 == 0 {
					_, err = c.Thaw(src, "m")
				} else {
					_, err = c.Flat(src, "m")
				}
				if (err != nil) != bad {
					t.Errorf("worker %d, source %d: err = %v", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.index) > 2 || c.order.Len() != len(c.index) {
		t.Fatalf("index %d / order %d entries, want equal and <= 2", len(c.index), c.order.Len())
	}
	for k := 10; k < 12; k++ {
		if _, ok := c.index[badFor(k)]; ok {
			t.Fatalf("failed source %d retained", k)
		}
	}
}
