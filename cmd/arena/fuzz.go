package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/difftest"
)

// cmdFuzz runs a differential-fuzzing campaign: seeded generated programs
// through every registered transform, checked against the O0 oracle on the
// tree interpreter. Each module-level transform runs on a thawed copy and on
// a clone that must match it; the thawed copy also runs on the bytecode VM
// and is cross-checked against the tree. Exits nonzero when any cell breaks
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
	verbose := fs.Bool("v", false, "per-transform table + obs footer")
	of := addObs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := of.begin("fuzz", fs, *seed, *verbose)
	if err != nil {
		return err
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
		// go again until the deadline.
		if *dur == 0 || !time.Now().Before(deadline) {
			break
		}
		cfg.Seed += int64(cfg.N)
	}

	for _, name := range total.TransformNames() {
		st := total.Stats[name]
		rec.man.AddCell("fuzz/"+name, "failures",
			[]float64{float64(st.Failures())})
		if *verbose {
			fmt.Printf("%-22s %6d cells  equal=%d trap-skipped=%d failures=%d  %v\n",
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
