package core

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/interp"
	"repro/internal/obfus"
	"repro/internal/passes"
	"repro/internal/progcache"
	"repro/internal/stats"
	"repro/internal/vm"
)

// EngineByName resolves an execution engine name: "tree" is the reference
// interpreter, "vm" the compiled bytecode engine.
func EngineByName(name string) (interp.Engine, error) {
	switch name {
	case "tree":
		return interp.Tree, nil
	case "vm":
		return vm.Engine{}, nil
	}
	return nil, fmt.Errorf("core: unknown engine %q (have tree, vm)", name)
}

// SpeedupRow is one kernel of the Figure-13 performance experiment:
// dynamic instruction counts relative to clang -O0.
type SpeedupRow struct {
	Name string
	// Steps at each configuration.
	O0Steps, O3Steps, OllvmSteps int64
	// O3Speedup is O0/O3 (>1 is faster); OllvmSlowdown is ollvm/O0
	// (>1 is slower).
	O3Speedup     float64
	OllvmSlowdown float64
}

// SpeedupReport aggregates the sixteen kernels.
type SpeedupReport struct {
	Rows []SpeedupRow
	// Geometric means, the aggregate the paper reports (8.33x slowdown for
	// O-LLVM, 2.32x speedup for -O3 on real hardware).
	GeoO3Speedup     float64
	GeoOllvmSlowdown float64
}

// SpeedupEngine runs the RQ6 experiment on the named engine (see
// EngineByName): each Benchmark-Game kernel is executed at O0, at O3 and
// under the combined O-LLVM obfuscation, with dynamic instruction count
// standing in for wall-clock time. Step counts are engine-independent by
// the engines' conformance contract, so the report is identical on either
// engine — the engine only changes how long it takes to produce.
//
// The 48 (kernel, configuration) runs are independent, so they run across
// all CPUs. The report, and the error if any run fails, are the same as a
// serial loop over kernels and then O0, O3, ollvm would produce.
func SpeedupEngine(seed int64, engine string) (*SpeedupReport, error) {
	eng, err := EngineByName(engine)
	if err != nil {
		return nil, err
	}
	kernels := dataset.BenchGame()
	// One obfuscation seed per kernel, drawn in kernel order.
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, len(kernels))
	for k := range seeds {
		seeds[k] = rng.Int63()
	}
	configs := [3]string{"O0", "O3", "ollvm"} // report order
	steps := make([][3]int64, len(kernels))
	errs := make([][3]error, len(kernels))
	// Longest first: the ollvm runs take several times as long as the
	// others and O3 runs are the shortest, so claiming the jobs in this
	// order keeps the makespan close to the total work over the workers.
	order := [3]int{2, 0, 1}
	ForEach(0, 3*len(kernels), func(j int) {
		k, c := j%len(kernels), order[j/len(kernels)]
		steps[k][c], errs[k][c] = speedupRun(eng, kernels[k], configs[c], seeds[k])
	})
	rep := &SpeedupReport{}
	var o3s, slows []float64
	for k, p := range kernels {
		for _, err := range errs[k] {
			if err != nil {
				return nil, err
			}
		}
		row := SpeedupRow{Name: p.Name, O0Steps: steps[k][0], O3Steps: steps[k][1], OllvmSteps: steps[k][2]}
		row.O3Speedup = float64(row.O0Steps) / float64(row.O3Steps)
		row.OllvmSlowdown = float64(row.OllvmSteps) / float64(row.O0Steps)
		o3s = append(o3s, row.O3Speedup)
		slows = append(slows, row.OllvmSlowdown)
		rep.Rows = append(rep.Rows, row)
	}
	rep.GeoO3Speedup = stats.GeoMean(o3s)
	rep.GeoOllvmSlowdown = stats.GeoMean(slows)
	return rep, nil
}

// speedupRun counts one kernel's dynamic instructions at one configuration.
// seed drives the obfuscator and is ignored by O0 and O3.
func speedupRun(eng interp.Engine, p dataset.BenchProgram, config string, seed int64) (int64, error) {
	// Each configuration mutates the module (passes, obfuscation), so thaw
	// a private copy off the one cached O0 compile.
	m, err := progcache.CompileThaw(p.Source, p.Name)
	if err != nil {
		return 0, err
	}
	switch config {
	case "O3":
		if err := passes.Optimize(m, passes.O3); err != nil {
			return 0, err
		}
	case "ollvm":
		if err := obfus.Apply(m, "ollvm", rand.New(rand.NewSource(seed))); err != nil {
			return 0, err
		}
	}
	res, err := eng.Run(m, interp.Options{MaxSteps: 2_000_000_000})
	if err != nil {
		return 0, fmt.Errorf("%s/%s: %w", p.Name, config, err)
	}
	return res.Steps, nil
}
