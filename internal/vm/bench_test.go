package vm_test

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obfus"
	"repro/internal/passes"
	"repro/internal/vm"
)

// benchOpts gives the kernels ample budget; wall-clock per executed step is
// what the benchmark measures, so both engines run the same step counts.
var benchOpts = interp.Options{MaxSteps: 2_000_000_000}

// benchCase is one (kernel, configuration) run of the Figure-13 suite.
type benchCase struct {
	name string // kernel/config
	mod  *ir.Module
}

// fig13Cases builds the Figure-13 mix: every Benchmark-Game kernel in
// dataset.BenchGame() order at O0, O3 and under ollvm. The ollvm seeds are
// the ones core.SpeedupEngine(1, ...) draws, one per kernel in kernel
// order, so each case executes the module the suite executes.
func fig13Cases(b *testing.B) []benchCase {
	rng := rand.New(rand.NewSource(1))
	var cases []benchCase
	for _, p := range dataset.BenchGame() {
		seed := rng.Int63()
		for _, config := range []string{"O0", "O3", "ollvm"} {
			m, err := minic.CompileSource(p.Source, p.Name)
			if err != nil {
				b.Fatalf("%s: %v", p.Name, err)
			}
			switch config {
			case "O3":
				err = passes.Optimize(m, passes.O3)
			case "ollvm":
				err = obfus.Apply(m, "ollvm", rand.New(rand.NewSource(seed)))
			}
			if err != nil {
				b.Fatalf("%s/%s: %v", p.Name, config, err)
			}
			cases = append(cases, benchCase{p.Name + "/" + config, m})
		}
	}
	return cases
}

// steps/op is reported so the output gives throughput (steps per second =
// steps/op ÷ ns/op × 1e9) alongside raw latency, and shows that both engines
// executed identical step counts.
func reportSteps(b *testing.B, steps int64) {
	b.ReportMetric(float64(steps), "steps/op")
}

// BenchmarkInterp measures the tree-walking interpreter on the Figure-13
// mix.
func BenchmarkInterp(b *testing.B) {
	for _, tc := range fig13Cases(b) {
		b.Run(tc.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := interp.Run(tc.mod, benchOpts)
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			reportSteps(b, steps)
		})
	}
}

// BenchmarkVM measures the compiled bytecode engine on the same mix,
// compiling once and reusing the Program — the intended usage for repeated
// execution (speedup game, serving).
func BenchmarkVM(b *testing.B) {
	for _, tc := range fig13Cases(b) {
		b.Run(tc.name, func(b *testing.B) {
			p, err := vm.Compile(tc.mod)
			if err != nil {
				b.Fatal(err)
			}
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := p.Run(benchOpts)
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			reportSteps(b, steps)
		})
	}
}

// BenchmarkVMCompile isolates the bytecode compiler itself, so the
// fixed cost of Compile-per-Run usage (the Engine interface path) is
// visible next to the execution numbers.
func BenchmarkVMCompile(b *testing.B) {
	for _, tc := range fig13Cases(b) {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vm.Compile(tc.mod); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
