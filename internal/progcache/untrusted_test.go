package progcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/minic"
)

// srcFor builds a distinct valid program per index, so each one occupies
// (or competes for) its own untrusted slot.
func srcFor(i int) string {
	return fmt.Sprintf("int main() { int x; x = %d; return x; }", i)
}

func resetUntrustedCap(t *testing.T) {
	t.Helper()
	Reset()
	SetUntrustedCap(DefaultUntrustedCap)
	t.Cleanup(func() {
		Reset()
		SetUntrustedCap(DefaultUntrustedCap)
	})
}

// TestUntrustedTierIsBounded is the regression test for the unbounded
// progcache growth on the serving path: 10 distinct wire sources through a
// 4-slot tier must leave exactly 4 entries and 6 evictions, where the old
// path pinned all 10 forever.
func TestUntrustedTierIsBounded(t *testing.T) {
	resetUntrustedCap(t)
	SetUntrustedCap(4)
	for i := 0; i < 10; i++ {
		if _, err := CompileThawUntrusted(srcFor(i), "m"); err != nil {
			t.Fatal(err)
		}
	}
	st := Snapshot()
	if st.UntrustedEntries != 4 {
		t.Fatalf("entries = %d, want the cap 4", st.UntrustedEntries)
	}
	if st.UntrustedEvicted != 6 {
		t.Fatalf("evictions = %d, want 6", st.UntrustedEvicted)
	}
	if st.UntrustedMisses != 10 {
		t.Fatalf("misses = %d, want 10", st.UntrustedMisses)
	}
	// The pinned cache must not have grown: that is the whole point.
	if st.Entries != 0 {
		t.Fatalf("untrusted compiles leaked %d entries into the pinned cache", st.Entries)
	}

	// LRU semantics: the most recent 4 survive, hit without compiling.
	for i := 6; i < 10; i++ {
		if _, err := CompileFlatUntrusted(srcFor(i), "m"); err != nil {
			t.Fatal(err)
		}
	}
	if got := Snapshot(); got.UntrustedHits < 4 {
		t.Fatalf("recent entries did not hit: %+v", got)
	}
}

// TestUntrustedFailuresNeverRetained: a hostile stream of non-compiling
// sources must churn zero slots — each failure is rejected without
// occupying an entry (the main cache deliberately caches failures; the
// untrusted tier deliberately must not).
func TestUntrustedFailuresNeverRetained(t *testing.T) {
	resetUntrustedCap(t)
	SetUntrustedCap(4)
	if _, err := CompileFlatUntrusted(srcFor(0), "m"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		bad := fmt.Sprintf("int main( { %d", i)
		var err error
		if i%2 == 0 {
			_, err = CompileFlatUntrusted(bad, "m")
		} else {
			_, err = CompileThawUntrusted(bad, "m")
		}
		if err == nil {
			t.Fatal("garbage source compiled")
		}
	}
	st := Snapshot()
	if st.UntrustedEntries != 1 {
		t.Fatalf("entries = %d after garbage storm, want 1", st.UntrustedEntries)
	}
	if st.UntrustedEvicted != 0 {
		t.Fatalf("garbage evicted %d good entries", st.UntrustedEvicted)
	}
	// The surviving good entry still hits.
	if _, err := CompileThawUntrusted(srcFor(0), "m"); err != nil {
		t.Fatal(err)
	}
	if got := Snapshot(); got.UntrustedHits != 1 {
		t.Fatalf("hits = %d, want 1", got.UntrustedHits)
	}
}

// TestUntrustedDelegatesToPinned: a source the harness already pinned is
// served from the main cache without spending an untrusted slot, and both
// untrusted entry points count that as an untrusted-tier hit (not as a hit
// on the pinned cache's own counters).
func TestUntrustedDelegatesToPinned(t *testing.T) {
	for _, tc := range []struct {
		name    string
		compile func(src, name string) error
	}{
		{"flat", func(src, name string) error {
			_, err := CompileFlatUntrusted(src, name)
			return err
		}},
		{"thaw", func(src, name string) error {
			m, err := CompileThawUntrusted(src, name)
			if err == nil && m.Name != name {
				return fmt.Errorf("thawed copy not renamed: %q", m.Name)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resetUntrustedCap(t)
			src := srcFor(42)
			if _, err := CompileFlat(src, "pinned"); err != nil {
				t.Fatal(err)
			}
			before := Snapshot()
			if err := tc.compile(src, "wire"); err != nil {
				t.Fatal(err)
			}
			st := Snapshot()
			if st.UntrustedHits != 1 || st.UntrustedMisses != 0 {
				t.Fatalf("pinned source: untrusted hits=%d misses=%d, want 1/0", st.UntrustedHits, st.UntrustedMisses)
			}
			if st.Hits != before.Hits || st.Misses != before.Misses {
				t.Fatalf("pinned source moved the pinned counters: hits %d->%d misses %d->%d",
					before.Hits, st.Hits, before.Misses, st.Misses)
			}
			if st.UntrustedEntries != 0 {
				t.Fatalf("pinned source consumed %d untrusted slots", st.UntrustedEntries)
			}
			if st.FlatMisses != before.FlatMisses {
				t.Fatal("pinned source flattened again instead of sharing the pinned view")
			}
		})
	}
}

// TestUntrustedCapZeroBypasses: cap 0 disables retention — compiles still
// succeed, nothing is kept.
func TestUntrustedCapZeroBypasses(t *testing.T) {
	resetUntrustedCap(t)
	SetUntrustedCap(0)
	for i := 0; i < 3; i++ {
		if _, err := CompileThawUntrusted(srcFor(i), "m"); err != nil {
			t.Fatal(err)
		}
	}
	if st := Snapshot(); st.UntrustedEntries != 0 {
		t.Fatalf("cap 0 retained %d entries", st.UntrustedEntries)
	}
	// And shrinking the cap under live entries evicts immediately.
	SetUntrustedCap(8)
	for i := 0; i < 8; i++ {
		if _, err := CompileFlatUntrusted(srcFor(i), "m"); err != nil {
			t.Fatal(err)
		}
	}
	SetUntrustedCap(2)
	if st := Snapshot(); st.UntrustedEntries != 2 {
		t.Fatalf("shrink left %d entries, want 2", st.UntrustedEntries)
	}
}

// TestUntrustedConcurrentChurn is the -race gate for the tier: concurrent
// hits, misses and evictions over a tiny cap, plus a cap change mid-storm.
func TestUntrustedConcurrentChurn(t *testing.T) {
	resetUntrustedCap(t)
	SetUntrustedCap(4)
	const workers, perWorker = 8, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				src := srcFor((w + i) % 10)
				var err error
				if i%2 == 0 {
					_, err = CompileThawUntrusted(src, "m")
				} else {
					_, err = CompileFlatUntrusted(src, "m")
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if i == perWorker/2 && w == 0 {
					SetUntrustedCap(2)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := Snapshot(); st.UntrustedEntries > 2 {
		t.Fatalf("entries = %d, want <= shrunk cap 2", st.UntrustedEntries)
	}
}

// TestUntrustedThawMatchesClone pins CompileThawUntrusted against a fresh
// front-end compile on both tiers: a fresh wire source (LRU-backed) and a
// harness-pinned one (main-cache-backed) must thaw to modules that print
// identically to the reference and stay private.
func TestUntrustedThawMatchesClone(t *testing.T) {
	resetUntrustedCap(t)

	// LRU-backed: first call compiles+flattens into the bounded tier.
	ref, err := minic.CompileSource(srcFor(1), "m")
	if err != nil {
		t.Fatal(err)
	}
	th, err := CompileThawUntrusted(srcFor(1), "m")
	if err != nil {
		t.Fatal(err)
	}
	th1, err := CompileThawUntrusted(srcFor(1), "m")
	if err != nil {
		t.Fatal(err)
	}
	if th == th1 || th.String() != ref.String() || th1.String() != ref.String() {
		t.Fatal("untrusted thaw diverged from a fresh compile")
	}
	if st := Snapshot(); st.Entries != 0 {
		t.Fatalf("untrusted thaw leaked %d entries into the pinned cache", st.Entries)
	}

	// Pinned-backed: the main cache's flat view serves the thaw.
	if _, err := CompileThaw(srcFor(2), "m"); err != nil {
		t.Fatal(err)
	}
	th2, err := CompileThawUntrusted(srcFor(2), "m")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := CompileShared(srcFor(2), "m")
	if err != nil {
		t.Fatal(err)
	}
	before := shared.String()
	if th2.String() != before {
		t.Fatal("pinned-backed thaw diverged from the master")
	}
	th2.Functions[0].Blocks = nil
	if shared.String() != before {
		t.Fatal("mutating an untrusted thaw changed the pinned master")
	}
	if st := Snapshot(); st.ThawHits != 4 {
		t.Fatalf("want 4 thaw hits, got %+v", st)
	}
}
