package difftest

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/progen"
)

// This file is the differential proof obligation behind ir.Thaw: for every
// registered module-level transform, mutating a module thawed from its flat
// view must be indistinguishable — bit for bit — from mutating a deep clone
// of the same module. The clone path is the oracle: it predates the flat IR
// and copies the pointer graph directly, so any divergence is a thaw bug
// (mis-wired operand, broken aliasing, a shared node that should have been
// private), not a transform bug.
//
// Each cell compiles the program once, derives both copies from that one
// module, runs the same transform with identically-seeded RNGs on each, and
// demands:
//
//   - the transform errors on both copies or on neither
//   - both results verify
//   - both results print identically
//   - both results behave identically under the interpreter: same return
//     value, same output, same trap kind, same step count (no relaxed trap
//     clause — the two modules are supposed to be the same module)
//
// After all transforms, the master module must still print exactly as it did
// before any cell ran and re-flatten to byte-identical tables: a transform
// that reaches through a thawed copy's shared immutables (types, foreign
// declarations) and mutates the master fails here even if its own cell
// passed.

// ThawEquivConfig bounds one thaw-equivalence campaign.
type ThawEquivConfig struct {
	N       int    // programs to generate
	Seed    int64  // base seed; program i uses Seed+i
	Workers int    // parallel workers (clamped; <=0 means all cores)
	Set     string // transform set for Transforms(); source transforms are skipped
	// Gen overrides the program shape; zero value means progen defaults.
	Gen progen.Config
}

// ThawEquivResult is the outcome of RunThawEquivalence.
type ThawEquivResult struct {
	Programs   int
	Transforms int   // module-level transforms exercised per program
	Cells      int64 // (program, transform) cells compared
	OracleErrs int64 // programs that failed to compile (generator bugs)
	Failures   []Failure
}

// thawCheck runs one transform over a clone-derived and a thaw-derived copy
// of master and returns a non-empty detail string on any divergence.
func thawCheck(master *ir.Module, fl *ir.Flat, tr Transform, seed int64) string {
	cl := master.Clone()
	th := ir.Thaw(fl)
	errA := tr.ApplyMod(cl, rand.New(rand.NewSource(seed)))
	errB := tr.ApplyMod(th, rand.New(rand.NewSource(seed)))
	if (errA == nil) != (errB == nil) {
		return fmt.Sprintf("transform error only on one path: clone=%v thaw=%v", errA, errB)
	}
	if errA != nil {
		if errA.Error() != errB.Error() {
			return fmt.Sprintf("transform errors differ: clone=%v thaw=%v", errA, errB)
		}
		return "" // failed identically; nothing further to compare
	}
	if err := cl.Verify(); err != nil {
		return fmt.Sprintf("clone path fails verify: %v", err)
	}
	if err := th.Verify(); err != nil {
		return fmt.Sprintf("thaw path fails verify: %v", err)
	}
	sa, sb := cl.String(), th.String()
	if sa != sb {
		return fmt.Sprintf("transformed modules print differently:\n--- clone ---\n%s\n--- thaw ---\n%s", sa, sb)
	}
	oa := Observe(cl, OracleMaxSteps)
	ob := Observe(th, OracleMaxSteps)
	if oa != ob {
		return fmt.Sprintf("transformed modules behave differently: clone %s vs thaw %s", oa, ob)
	}
	return ""
}

// RunThawEquivalence generates cfg.N programs and, for each, checks every
// module-level transform in cfg.Set for clone/thaw equivalence. The run is
// deterministic for a fixed (Seed, N, Set) regardless of Workers.
func RunThawEquivalence(cfg ThawEquivConfig) (*ThawEquivResult, error) {
	all, err := Transforms(cfg.Set)
	if err != nil {
		return nil, err
	}
	var trs []Transform
	for _, tr := range all {
		if tr.ApplyMod != nil {
			trs = append(trs, tr)
		}
	}
	if len(trs) == 0 {
		return nil, fmt.Errorf("difftest: transform set %q has no module-level transforms", cfg.Set)
	}
	gen := cfg.Gen
	if gen == (progen.Config{}) {
		gen = progen.DefaultConfig()
	}

	programs := obs.GetCounter("thawfuzz.programs")
	cells := obs.GetCounter("thawfuzz.cells")
	failures := obs.GetCounter("thawfuzz.failures")

	res := &ThawEquivResult{Programs: cfg.N, Transforms: len(trs)}
	// Each program fills its own slot; the slots fold in index order below.
	type slot struct {
		failures []Failure
		compile  bool // the program itself failed to compile
	}
	slots := make([]slot, cfg.N)
	core.ForEach(cfg.Workers, cfg.N, func(i int) {
		sl := &slots[i]
		progSeed := cfg.Seed + int64(i)
		src := progen.GenerateCfg(rand.New(rand.NewSource(progSeed)), gen)
		programs.Inc()
		master, err := minic.CompileSource(src, "prog")
		if err != nil {
			sl.compile = true
			sl.failures = append(sl.failures, Failure{
				Seed: progSeed, Transform: "compile", Verdict: TransformError,
				Detail: err.Error(), Repro: src,
			})
			return
		}
		before := master.String()
		fl := ir.Flatten(master)
		for _, tr := range trs {
			cells.Inc()
			if detail := thawCheck(master, fl, tr, cellSeed(progSeed, tr.Name)); detail != "" {
				sl.failures = append(sl.failures, Failure{
					Seed: progSeed, Transform: tr.Name, Verdict: Mismatch,
					Detail: detail, Repro: src,
				})
			}
		}
		// The master fed every cell; none may have touched it — not
		// through the clone, not through shared thaw immutables.
		if after := master.String(); after != before {
			sl.failures = append(sl.failures, Failure{
				Seed: progSeed, Transform: "master-immutability", Verdict: Mismatch,
				Detail: fmt.Sprintf("master mutated by transform cells:\n--- before ---\n%s\n--- after ---\n%s", before, after),
				Repro:  src,
			})
		} else if d := ir.FlatDiff(fl, ir.Flatten(master)); d != "" {
			sl.failures = append(sl.failures, Failure{
				Seed: progSeed, Transform: "master-immutability", Verdict: Mismatch,
				Detail: "master no longer re-flattens to its original tables: " + d,
				Repro:  src,
			})
		}
	})
	for _, sl := range slots {
		if sl.compile {
			res.OracleErrs++
		}
		res.Failures = append(res.Failures, sl.failures...)
	}
	res.Cells = int64(res.Programs) * int64(res.Transforms)

	// Failure order must not depend on worker scheduling.
	sort.Slice(res.Failures, func(i, j int) bool {
		if res.Failures[i].Seed != res.Failures[j].Seed {
			return res.Failures[i].Seed < res.Failures[j].Seed
		}
		return res.Failures[i].Transform < res.Failures[j].Transform
	})
	for range res.Failures {
		failures.Inc()
	}
	return res, nil
}
