package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/difftest"
	"repro/internal/progcache"
)

// cmdFuzz runs a differential-fuzzing campaign: seeded generated programs
// through every registered transform, checked against the O0 oracle on the
// tree interpreter, with every transformed module also run on the bytecode
// VM and cross-checked against the tree. Exits nonzero when any cell breaks
// semantics, writing shrunk repros to -crashers.
func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	n := fs.Int("n", 200, "programs per campaign batch")
	seed := fs.Int64("seed", 1, "base seed; program i uses seed+i")
	dur := fs.Duration("dur", 0,
		"keep running batches (advancing the seed) until this much time has passed (0 = one batch)")
	workers := fs.Int("j", 0, "parallel workers (0 = all cores)")
	set := fs.String("set", "module",
		"transform set: smoke (passes+pipelines+obfuscators), module (+composed), all (+source strategies), or one transform name")
	small := fs.Bool("small", false,
		"generate smaller programs (the fuzz-smoke shape: cheaper cells, higher program throughput)")
	crashers := fs.String("crashers", "testdata/crashers",
		"directory for shrunk failing programs (empty = don't write)")
	noShrink := fs.Bool("no-shrink", false, "report failures unshrunk (faster triage turnaround)")
	thaw := fs.Bool("thaw", false,
		"run the clone-vs-thaw equivalence campaign instead: each module-level transform is applied to a deep clone and to a thawed flat-view copy with the same seed, and the two must match bit-for-bit")
	verbose := fs.Bool("v", false, "per-transform table + obs footer")
	of := addObs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := of.begin("fuzz", fs, *seed, *verbose)
	if err != nil {
		return err
	}
	if *thaw {
		return fuzzThaw(rec, *n, *seed, *workers, *set, *small)
	}

	cfg := difftest.CampaignConfig{
		N: *n, Seed: *seed, Workers: *workers, Set: *set,
		CrashersDir: *crashers, Shrink: !*noShrink,
	}
	if *small {
		cfg.Gen = difftest.SmokeGen()
	}

	deadline := time.Now().Add(*dur)
	total := &difftest.CampaignResult{}
	batches := 0
	for {
		res, err := difftest.RunCampaign(cfg)
		if err != nil {
			return err
		}
		total.Merge(res)
		batches++
		// One batch when -dur is zero; otherwise advance the seed space and
		// go again until the deadline. Reset the compile cache between
		// batches so a long campaign's memory stays flat.
		if *dur == 0 || !time.Now().Before(deadline) {
			break
		}
		cfg.Seed += int64(cfg.N)
		progcache.Reset()
	}

	for _, name := range total.TransformNames() {
		st := total.Stats[name]
		rec.man.AddCell("fuzz/"+name, "failures",
			[]float64{float64(st.Failures())})
		if *verbose {
			fmt.Printf("%-14s %6d cells  equal=%d trap-skipped=%d failures=%d  %v\n",
				name, st.Cells(), st.Equal, st.TrapSkipped, st.Failures(),
				time.Duration(st.Nanos).Round(time.Millisecond))
		}
	}
	rec.man.AddCell("fuzz/programs", "programs", []float64{float64(total.Programs)})
	if err := rec.finish(); err != nil {
		return err
	}

	fmt.Printf("fuzz: %d programs x %d transforms in %d batch(es): %d failures, %d oracle errors\n",
		total.Programs, len(total.Stats), batches, total.TotalFailures(), total.OracleErrs)
	if total.TotalFailures() > 0 || total.OracleErrs > 0 {
		for _, f := range total.Failures {
			fmt.Fprintf(os.Stderr, "FAIL seed=%d transform=%s verdict=%s: %.200s\n",
				f.Seed, f.Transform, f.Verdict, f.Detail)
		}
		if *crashers != "" {
			fmt.Fprintf(os.Stderr, "shrunk repros written to %s\n", *crashers)
		}
		return fmt.Errorf("%d semantics-breaking cells", total.TotalFailures()+total.OracleErrs)
	}
	return nil
}

// fuzzThaw runs the clone-vs-thaw differential campaign: the thaw-derived
// copy of every cached module must be indistinguishable from the deep-clone
// oracle under every registered module-level transform. Exits nonzero on any
// divergence.
func fuzzThaw(rec *runRecorder, n int, seed int64, workers int, set string, small bool) error {
	cfg := difftest.ThawEquivConfig{N: n, Seed: seed, Workers: workers, Set: set}
	if small {
		cfg.Gen = difftest.SmokeGen()
	}
	res, err := difftest.RunThawEquivalence(cfg)
	if err != nil {
		return err
	}
	rec.man.AddCell("fuzz/thaw", "cells", []float64{float64(res.Cells)})
	rec.man.AddCell("fuzz/thaw", "failures", []float64{float64(len(res.Failures))})
	if err := rec.finish(); err != nil {
		return err
	}
	fmt.Printf("fuzz -thaw: %d programs x %d transforms = %d clone-vs-thaw cells: %d failures, %d oracle errors\n",
		res.Programs, res.Transforms, res.Cells, len(res.Failures), res.OracleErrs)
	if len(res.Failures) > 0 || res.OracleErrs > 0 {
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "FAIL seed=%d transform=%s: %.200s\n", f.Seed, f.Transform, f.Detail)
		}
		return fmt.Errorf("%d clone-vs-thaw divergences", len(res.Failures))
	}
	return nil
}
