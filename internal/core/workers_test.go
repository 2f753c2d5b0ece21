package core

import (
	"runtime"
	"testing"

	"repro/internal/stats"
)

func TestClampWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name       string
		workers, n int
		want       int
	}{
		{"no work", 8, 0, 0},
		{"negative work", 8, -1, 0},
		{"no work no workers", 0, 0, 0},
		{"default workers clamp to n", 0, 2, min(maxprocs, 2)},
		{"negative workers clamp to n", -3, 2, min(maxprocs, 2)},
		{"more workers than work", 10, 3, 3},
		{"exact fit", 4, 4, 4},
		{"fewer workers than work", 2, 9, 2},
		{"single worker", 1, 100, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ClampWorkers(tc.workers, tc.n); got != tc.want {
				t.Fatalf("ClampWorkers(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
			}
		})
	}
	// The GOMAXPROCS default must still be clamped by n on big machines and
	// stay >= 1 on any machine.
	if got := ClampWorkers(0, 1); got != 1 {
		t.Fatalf("ClampWorkers(0, 1) = %d, want 1", got)
	}
}

// ForEach over no work must not spawn workers or call fn, whatever the
// requested worker count.
func TestForEachEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		ForEach(workers, 0, func(i int) {
			t.Fatalf("fn called for empty range (workers=%d, i=%d)", workers, i)
		})
	}
}

// RunRoundsN must reject rounds < 1 up front instead of indexing into an
// empty result slice (the old `arena game0 -rounds 0` panic).
func TestRunRoundsNRejectsZeroRounds(t *testing.T) {
	for _, rounds := range []int{0, -1} {
		_, sum, err := RunRoundsN(nil, GameConfig{}, rounds, 4)
		if err == nil {
			t.Fatalf("RunRoundsN(rounds=%d) did not error", rounds)
		}
		if sum != (stats.Summary{}) {
			t.Fatalf("RunRoundsN(rounds=%d) returned a non-zero summary on error", rounds)
		}
	}
}
