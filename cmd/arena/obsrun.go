package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/progcache"
)

// obsFlags are the observability flags every arena command accepts: -out
// emits a JSON run manifest, -debug-addr serves expvar + pprof for live
// profiling of long runs.
type obsFlags struct {
	out       string
	debugAddr string
}

func addObs(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.out, "out", "",
		`write a JSON run manifest to this path ("auto" = runs/<cmd>-<timestamp>.json)`)
	fs.StringVar(&o.debugAddr, "debug-addr", "",
		"serve expvar and pprof on this address (e.g. localhost:6060) for live profiling")
	return o
}

// runRecorder observes one command execution: it captures the metrics
// registry before the run so the manifest and the -v footer report only
// this run's delta (the registry is process-wide and `arena all` chains
// many commands), accumulates experiment cells, and finalizes the
// manifest.
type runRecorder struct {
	o       *obsFlags
	fs      *flag.FlagSet
	verbose bool
	start   time.Time
	before  obs.Snapshot
	man     *obs.Manifest
}

// begin starts recording the named command. Call after flag parsing so the
// manifest sees resolved values.
func (o *obsFlags) begin(cmd string, fs *flag.FlagSet, seed int64, verbose bool) (*runRecorder, error) {
	if o.debugAddr != "" {
		addr, err := obs.StartDebug(o.debugAddr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars and /debug/pprof/\n", addr)
	}
	man := obs.NewManifest(cmd, flagConfig(fs), seed)
	man.Host.SIMD = linalg.SIMDEnabled()
	return &runRecorder{
		o: o, fs: fs, verbose: verbose,
		start:  time.Now(),
		before: obs.Capture(),
		man:    man,
	}, nil
}

// addResults records one cell's per-round game results.
func (r *runRecorder) addResults(name string, rs []core.GameResult) {
	accs := make([]float64, len(rs))
	f1s := make([]float64, len(rs))
	for i, g := range rs {
		accs[i] = g.Accuracy
		f1s[i] = g.F1
	}
	r.man.AddCell(name, "accuracy", accs).F1 = f1s
}

// finish prints the -v footer and writes the manifest if -out was given.
func (r *runRecorder) finish() error {
	wall := time.Since(r.start)
	delta := obs.Capture().Sub(r.before)
	if r.verbose {
		printObsFooter(wall, delta)
	}
	if r.o.out == "" {
		return nil
	}
	path := r.o.out
	if path == "auto" {
		path = filepath.Join("runs",
			fmt.Sprintf("%s-%s.json", r.man.Command, time.Now().UTC().Format("20060102-150405")))
	}
	r.man.WallNS = int64(wall)
	r.man.Metrics = delta
	if err := r.man.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote run manifest %s\n", path)
	return nil
}

// flagConfig collects the full resolved configuration of a parsed flag set
// — defaults included — so a manifest pins every knob, not just the ones
// typed on the command line.
func flagConfig(fs *flag.FlagSet) map[string]string {
	cfg := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) {
		cfg[f.Name] = f.Value.String()
	})
	return cfg
}

// printObsFooter is the -v footer: phase timings, compile-cache counters
// and kernel-dispatch counts for this run (delta, not process totals).
func printObsFooter(wall time.Duration, d obs.Snapshot) {
	ft := d.Timers["phase.featurize"].Total()
	tt := d.Timers["phase.train"].Total()
	fmt.Printf("timing: wall %v | featurize %v + train %v across %d rounds (cpu-time, parallel)\n",
		wall.Round(time.Millisecond), ft.Round(time.Millisecond),
		tt.Round(time.Millisecond), d.Counters["phase.rounds"])
	hits, misses := d.Counters["progcache.hits"], d.Counters["progcache.misses"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	fmt.Printf("progcache: %d hits / %d misses (%.1f%% hit rate), %d modules cached, compile %v, thaw %v (%d)\n",
		hits, misses, 100*ratio, progcache.Snapshot().Entries,
		d.Timers["progcache.compile"].Total().Round(time.Millisecond),
		d.Timers["progcache.thaw"].Total().Round(time.Millisecond),
		d.Counters["progcache.thaw.hits"])
	simdCalls := d.Counters["linalg.gemm_nt.simd"] + d.Counters["linalg.gemm_nn.simd"] +
		d.Counters["linalg.gemm_tn.simd"]
	portable := d.Counters["linalg.gemm_nt.portable"] + d.Counters["linalg.gemm_nn.portable"] +
		d.Counters["linalg.gemm_tn.portable"]
	kernels := "portable"
	if linalg.SIMDEnabled() {
		kernels = "avx2+fma"
	}
	fmt.Printf("linalg: %s kernels | %d simd / %d portable gemm calls, %d matvec\n",
		kernels, simdCalls, portable, d.Counters["linalg.matvec"])
}

// cmdReport loads two run manifests and prints their accuracy/timing diff:
// the regression check between two runs of the same experiment. With
// -tol >= 0 it fails when any cell's mean accuracy moved more than the
// tolerance.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	tol := fs.Float64("tol", -1,
		"fail (exit nonzero) if any cell's |mean accuracy delta| exceeds this or a baseline cell is missing from the candidate (negative = report only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: arena report [-tol x] baseline.json candidate.json")
	}
	a, err := obs.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := obs.Load(fs.Arg(1))
	if err != nil {
		return err
	}
	d := obs.DiffManifests(a, b)
	d.WriteText(os.Stdout)
	if *tol < 0 {
		return nil
	}
	return d.Gate(*tol)
}
