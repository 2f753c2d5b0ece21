package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/progcache"
	"repro/internal/vm"
)

// kernelObs is one kernel's observable behaviour at O0 on the tree
// interpreter: the oracle every VM run of that kernel must reproduce.
type kernelObs struct {
	ret   int64
	out   string
	steps int64
}

// suiteRow is one kernel's step counts at O0, O3 and ollvm.
type suiteRow struct{ o0, o3, ollvm int64 }

// fig13Seeds are the suites of one cycle; the seed drives the ollvm
// obfuscation, and with it each suite's step counts. The cycle is one
// suite: seed 2's takes 10 to 35 % longer than seed 1's, so quantiles over
// single suites of both land on whichever seed sits at that rank, and a
// cycle of both fits only four or five times in a run. --seed therefore
// has nothing to pick in this workload.
var fig13Seeds = []int64{1}

// runFig13 repeats the Figure-13 suite on the bytecode VM in a closed loop,
// one suite at a time, so no two suites compete for the cores. Set-up
// compiles the sixteen kernels into the pinned cache; the tree
// interpreter's O0 results, computed once, are the oracle. Untraced runs
// time core.SpeedupEngine and check its step counts against the decomposed
// suite's; traced runs time the decomposed suite, which also checks every
// run's return value and output, and check its step counts against
// core.SpeedupEngine's.
func runFig13(o options) (*outcome, error) {
	kernels := dataset.BenchGame()
	setup, err := timeSetup(func() error {
		progcache.Reset()
		for _, p := range kernels {
			if _, err := progcache.CompileFlat(p.Source, p.Name); err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	tree, err := treeOracle(kernels)
	if err != nil {
		return nil, err
	}
	library := func(k int, _ *opTrace) ([]suiteRow, error) {
		rep, err := core.SpeedupEngine(fig13Seeds[k], "vm")
		if err != nil {
			return nil, err
		}
		rows := make([]suiteRow, len(rep.Rows))
		for i, r := range rep.Rows {
			rows[i] = suiteRow{r.O0Steps, r.O3Steps, r.OllvmSteps}
		}
		return rows, nil
	}
	decomposed := func(k int, ot *opTrace) ([]suiteRow, error) {
		rows, bad, err := suite(kernels, fig13Seeds[k], tree, nil, ot)
		if err == nil && bad > 0 {
			err = fmt.Errorf("%d kernel runs disagree with the tree interpreter", bad)
		}
		return rows, err
	}
	measured, reference := library, decomposed
	var tr *tracer
	if o.trace {
		measured, reference = decomposed, library
		tr = newTracer()
	}

	loop, untraced, _, err := runOps(o, tr, len(fig13Seeds), 1, measured, reference, rowsEqual)
	if err != nil {
		return nil, err
	}
	return &outcome{
		setup:      setup,
		attempted:  loop.attempted,
		failed:     loop.failed,
		good:       loop.attempted - loop.failed,
		elapsed:    loop.busy,
		lat:        loop.lat,
		win:        loop.win,
		rssMB:      median(loop.rss),
		tr:         tr,
		untracedOp: untraced,
	}, nil
}

// treeOracle runs every kernel at O0 on the tree interpreter.
func treeOracle(kernels []dataset.BenchProgram) ([]kernelObs, error) {
	out := make([]kernelObs, len(kernels))
	for i, p := range kernels {
		m, err := progcache.CompileThaw(p.Source, p.Name)
		if err != nil {
			return nil, err
		}
		res, err := interp.Run(m, interp.Options{MaxSteps: 2_000_000_000})
		if err != nil {
			return nil, fmt.Errorf("%s on the tree interpreter: %w", p.Name, err)
		}
		out[i] = kernelObs{res.Ret, res.Output, res.Steps}
	}
	return out, nil
}

// suite is core.SpeedupEngine rebuilt from the layers' public functions,
// with a span around each call: thaw the cached O0 compile, optimize or
// obfuscate, flatten, compile to bytecode, run. It draws the ollvm seeds in
// the same order, so its step counts match. Every run must reproduce the
// kernel's tree-interpreter return value and output, and the O0 run its
// step count; bad counts the runs that do not. A non-nil eng replaces the
// flatten-compile-run steps, so a deliberately broken engine can prove the
// check catches it. Each run's step budget follows the differential
// harness: 64 times the oracle's steps, plus slack.
func suite(kernels []dataset.BenchProgram, seed int64, tree []kernelObs, eng interp.Engine, ot *opTrace) ([]suiteRow, int, error) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]suiteRow, len(kernels))
	bad := 0
	for i, p := range kernels {
		oracle := tree[i]
		opts := interp.Options{MaxSteps: 64*oracle.steps + 65536}
		for _, tr := range []string{"O0", "O3", "ollvm"} {
			end := ot.span("progcache.thaw")
			m, err := progcache.CompileThaw(p.Source, p.Name)
			end()
			if err != nil {
				return nil, 0, err
			}
			switch tr {
			case "O3":
				err = optimize(m, passes.O3, ot)
			case "ollvm":
				err = obfuscate(m, "ollvm", rand.New(rand.NewSource(rng.Int63())), ot)
			}
			if err != nil {
				return nil, 0, fmt.Errorf("%s/%s: %w", p.Name, tr, err)
			}
			var res *interp.Result
			if eng != nil {
				res, err = eng.Run(m, opts)
			} else {
				res, err = execVM(m, opts, ot)
			}
			if err != nil || res.Ret != oracle.ret || res.Output != oracle.out ||
				(tr == "O0" && res.Steps != oracle.steps) {
				bad++
				continue
			}
			switch tr {
			case "O0":
				rows[i].o0 = res.Steps
			case "O3":
				rows[i].o3 = res.Steps
			case "ollvm":
				rows[i].ollvm = res.Steps
			}
		}
	}
	return rows, bad, nil
}

// execVM is vm.Run split at its layer boundaries.
func execVM(m *ir.Module, opts interp.Options, ot *opTrace) (*interp.Result, error) {
	fl := flatten(m, ot)
	end := ot.span("vm.compile")
	prog, err := vm.CompileFlat(fl)
	end()
	if err != nil {
		return nil, err
	}
	end = ot.span("vm.run")
	res, err := prog.Run(opts)
	end()
	if err == nil {
		ot.count("vm.steps", float64(res.Steps))
	}
	return res, err
}

func rowsEqual(a, b []suiteRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
