package main

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/progcache"
)

// Each workload sets up at least setupReps times and until the repetitions
// have taken setupTime together; setup_s is their median. One set-up takes
// 4 to 45 ms, so a fixed 21 of them sampled well under a second of a host
// whose speed wanders, and their median moved by a quarter between runs.
const (
	setupReps = 21
	setupTime = 1500 * time.Millisecond
)

// corpusSeed fixes the program corpus the games, coevo and serve workloads
// draw from: the 8-class, 12-per-class set bench_test.go uses for the
// figures.
//
// The work itself is fixed too: each closed-loop workload cycles through a
// fixed set of ops (seven game rounds, one Figure-13 suite, four arenas),
// and --seed picks the order of the ops within each cycle and, for serve,
// the request order. Which programs, splits and evader draws an op gets moves
// its cost by up to fivefold (one arena seed against another), so letting
// --seed choose them would make runs with different seeds measure different
// amounts of work.
const corpusSeed = 12345

// cycleOrder is the order the c-th cycle of a closed loop over n ops runs
// them in, drawn afresh from the seed for each cycle.
func cycleOrder(seed int64, n, c int) []int {
	return rand.New(rand.NewSource(seed*7919 + int64(c))).Perm(n)
}

// timeSetup runs setup at least setupReps times and until setupTime has
// passed in it, and returns each duration. The state the last call leaves
// behind is what the run measures; release, if given, frees what each
// earlier call left behind. Both it and a garbage collection run untimed
// before every repetition, so each starts from the same heap instead of
// paying for its predecessors' garbage.
func timeSetup(setup, release func() error) ([]time.Duration, error) {
	var durs []time.Duration
	var total time.Duration
	for i := 0; i < setupReps || total < setupTime; i++ {
		if i > 0 && release != nil {
			if err := release(); err != nil {
				return nil, fmt.Errorf("set-up release: %w", err)
			}
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		durs = append(durs, d)
		total += d
	}
	return durs, nil
}

// loopResult is what a closed loop measured. Its latencies are one per
// cycle: the mean op latency within that cycle. busy is the loop's time per
// worker, the sum of cycle times over the worker count: ops over busy is the
// loop's throughput (Little's law), and unlike ops over wall time it does
// not count workers idling while the last cycles of the window finish.
type loopResult struct {
	lat       []time.Duration
	attempted int64
	failed    int64
	busy      time.Duration
	win       windowDelta // program counters over the measured loop
	rss       []float64   // per cycle: its peak resident set, MB
}

// runOps drives a closed-loop workload of n distinct ops. It first computes
// every op's answer on the reference path, nproc at a time, then runs the
// measured path in a closed loop of cycles for the window and counts an op
// failed when its answer differs. A cycle runs every op once, in an order
// drawn from the seed for that cycle, and inflight workers each run one
// cycle at a time. The latencies are per cycle because the ops differ in
// cost by up to tenfold: a quantile over single ops lands on whichever op
// happens to sit at that rank, while every cycle does the same work.
//
// The loop stops starting cycles once the window has passed and at least
// one cycle (two when traced) has started. In traced runs (tr non-nil)
// every other cycle runs the same measured path with no spans; the mean op
// time of those cycles, taken beside the traced ones under the same
// conditions, is the untraced side of the tracing overhead.
func runOps[T any](o options, tr *tracer, n, inflight int, measured, reference func(k int, ot *opTrace) (T, error),
	equal func(a, b T) bool) (loopResult, time.Duration, []T, error) {

	want := make([]T, n)
	errs := make([]error, n)
	slots := make(chan struct{}, nproc())
	var ref sync.WaitGroup
	for k := range want {
		ref.Add(1)
		slots <- struct{}{}
		go func() {
			defer ref.Done()
			want[k], errs[k] = reference(k, nil)
			<-slots
		}()
	}
	ref.Wait()
	if err := errors.Join(errs...); err != nil {
		return loopResult{}, 0, nil, fmt.Errorf("reference pass: %w", err)
	}
	minCycles := 1
	if tr != nil {
		minCycles = 2
	}
	window := seconds(o)
	var mu sync.Mutex
	next := 0
	var res loopResult
	var untraced []time.Duration
	rss := startRSSSampler()
	defer rss.close()
	win := openWindow()
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= minCycles && time.Since(start) >= window {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, ok := take()
				if !ok {
					return
				}
				traced := tr != nil && c%2 == 0
				failed := int64(0)
				rss.begin(c)
				t0 := time.Now()
				for _, k := range cycleOrder(o.seed, n, c) {
					var ot *opTrace
					if traced {
						ot = tr.begin()
					}
					got, err := measured(k, ot)
					ot.finish()
					if err != nil || !equal(got, want[k]) {
						failed++
					}
				}
				d := time.Since(t0) / time.Duration(n)
				peak := rss.end(c)
				mu.Lock()
				res.lat = append(res.lat, d)
				res.rss = append(res.rss, peak)
				res.attempted += int64(n)
				res.failed += failed
				res.busy += d * time.Duration(n) / time.Duration(inflight)
				if tr != nil && !traced {
					untraced = append(untraced, d)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.win = win.close()
	return res, meanDur(untraced), want, nil
}

func seconds(o options) time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// meanDur is the mean of ds (0 for none).
func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(quantileMS(ds, 0.5) * float64(time.Millisecond))
}

// quantileMS is the q-quantile of ds in milliseconds, interpolating
// linearly between the two nearest ranks.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = ms(d)
	}
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// window brackets the measured phase to read the program's own counters
// and the runtime's allocation and GC figures over it alone.
type window struct {
	pc         progcache.Stats
	allocBytes uint64
	gcPause    uint64
}

type windowDelta struct {
	pc         progcache.Stats
	allocBytes uint64
	gcPause    time.Duration
}

func openWindow() window {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return window{pc: progcache.Snapshot(), allocBytes: m.TotalAlloc, gcPause: m.PauseTotalNs}
}

func (w window) close() windowDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	pc := progcache.Snapshot()
	return windowDelta{
		pc: progcache.Stats{
			Hits:             pc.Hits - w.pc.Hits,
			Misses:           pc.Misses - w.pc.Misses,
			UntrustedHits:    pc.UntrustedHits - w.pc.UntrustedHits,
			UntrustedMisses:  pc.UntrustedMisses - w.pc.UntrustedMisses,
			UntrustedEvicted: pc.UntrustedEvicted - w.pc.UntrustedEvicted,
			CompileTime:      pc.CompileTime - w.pc.CompileTime,
			FlattenTime:      pc.FlattenTime - w.pc.FlattenTime,
			ThawTime:         pc.ThawTime - w.pc.ThawTime,
		},
		allocBytes: m.TotalAlloc - w.allocBytes,
		gcPause:    time.Duration(m.PauseTotalNs - w.gcPause),
	}
}

// peakRSSMB is the process's peak resident set (VmHWM).
func peakRSSMB() float64 { return procStatusMB("VmHWM:") }

// procStatusMB reads a memory field of /proc/self/status, falling back to
// the Go runtime's total footprint where that file does not exist.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == field {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// rssEvery is how often an rssSampler reads the resident set.
const rssEvery = 5 * time.Millisecond

// rssSampler tracks the peak resident set of each cycle in flight by
// reading VmRSS every rssEvery. A closed loop reports the median of its
// cycles' peaks rather than the process's one peak: now and then a garbage
// collection finishes late under a busy host and the heap overshoots by
// half for one cycle (24 MB to 40 MB on games), and that one cycle set the
// whole run's peak.
type rssSampler struct {
	mu     sync.Mutex
	active map[int]float64
	stop   chan struct{}
	done   chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{active: map[int]float64{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *rssSampler) observe() {
	r := procStatusMB("VmRSS:")
	s.mu.Lock()
	defer s.mu.Unlock()
	for c, v := range s.active {
		s.active[c] = max(v, r)
	}
}

// begin starts tracking cycle c.
func (s *rssSampler) begin(c int) {
	s.mu.Lock()
	s.active[c] = 0
	s.mu.Unlock()
	s.observe()
}

// end stops tracking cycle c and returns its peak.
func (s *rssSampler) end(c int) float64 {
	s.observe()
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.active[c]
	delete(s.active, c)
	return v
}

// close stops the sampler and waits for it.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// median is the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// stamp identifies the build and host a result came from.
func stamp() string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			commit += "+dirty"
		}
	}
	return fmt.Sprintf("commit=%s nproc=%d gomaxprocs=%d go=%s simd=%v",
		commit, nproc(), runtime.GOMAXPROCS(0), runtime.Version(), linalg.SIMDEnabled())
}
