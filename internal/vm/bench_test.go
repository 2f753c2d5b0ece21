package vm_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/vm"
)

// benchOpts gives the kernels ample budget; wall-clock per executed step is
// what the benchmark measures, so both engines run the same step counts.
var benchOpts = interp.Options{MaxSteps: 2_000_000_000}

func benchModules(b *testing.B) map[string]*ir.Module {
	mods := make(map[string]*ir.Module)
	for _, p := range dataset.BenchGame() {
		m, err := minic.CompileSource(p.Source, p.Name)
		if err != nil {
			b.Fatalf("%s: %v", p.Name, err)
		}
		mods[p.Name] = m
	}
	return mods
}

// steps/op is reported so the output gives throughput (steps per second =
// steps/op ÷ ns/op × 1e9) alongside raw latency, and shows that both engines
// executed identical step counts.
func reportSteps(b *testing.B, steps int64) {
	b.ReportMetric(float64(steps), "steps/op")
}

// BenchmarkInterp measures the tree-walking interpreter on every
// Benchmark-Game kernel (the Figure-13 workload).
func BenchmarkInterp(b *testing.B) {
	for name, m := range benchModules(b) {
		b.Run(name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := interp.Run(m, benchOpts)
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			reportSteps(b, steps)
		})
	}
}

// BenchmarkVM measures the compiled bytecode engine on the same kernels,
// compiling once and reusing the Program — the intended usage for repeated
// execution (speedup game, serving).
func BenchmarkVM(b *testing.B) {
	for name, m := range benchModules(b) {
		b.Run(name, func(b *testing.B) {
			p, err := vm.Compile(m)
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
	for name, m := range benchModules(b) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vm.Compile(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
