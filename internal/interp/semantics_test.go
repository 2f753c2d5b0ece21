package interp_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/passes"
	"repro/internal/vm"
)

// engines are the execution engines; the regression tests here run each
// scenario on all of them so a semantics fix holds in the tree interpreter
// and the bytecode VM alike.
var engines = []interp.Engine{interp.Tree, vm.Engine{}}

// TestFPToInt64Saturation pins the defined float-to-int conversion: NaN and
// ±Inf go to 0, finite out-of-range values saturate. Go's own int64(f) is
// architecture-dependent for these inputs (amd64 flushes to MinInt64, arm64
// saturates), so the table below is what keeps the fuzz oracle and the
// Figure-13 step counts identical across machines.
func TestFPToInt64Saturation(t *testing.T) {
	two63 := math.Ldexp(1, 63) // 2^63: the smallest float64 >= MaxInt64
	cases := []struct {
		in   float64
		want int64
	}{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{0, 0},
		{1.9, 1},
		{-1.9, -1},
		{two63, math.MaxInt64},
		{math.Nextafter(two63, 0), 9223372036854774784}, // largest in-range float64
		{-two63, math.MinInt64},                         // -2^63 is exactly representable
		{math.Nextafter(-two63, math.Inf(-1)), math.MinInt64},
		{1e300, math.MaxInt64},
		{-1e300, math.MinInt64},
	}
	for _, tc := range cases {
		if got := ir.FPToInt64(tc.in); got != tc.want {
			t.Errorf("FPToInt64(%g) = %d, want %d", tc.in, got, tc.want)
		}
	}

	// The same table through every path a conversion can take, on every
	// engine: an executed fptosi, the same fptosi folded at O3 and, for
	// each finite row, MiniC's (int) cast of a literal at O0 (folded by the
	// front end, or an fneg and fptosi executed for a negative value) and
	// at O3. The conversion the engines run, the folder evaluates and the
	// front end folds must be the one the oracle defines.
	fptosi := func(f float64) *ir.Module {
		m := ir.NewModule("fp")
		fn := m.Add(ir.NewFunction("main", ir.I64, nil, nil))
		bd := ir.NewBuilder(fn.NewBlock("entry"))
		bd.Ret(bd.Cast(ir.OpFPToSI, ir.ConstFloat(f), ir.I64))
		return m
	}
	for _, tc := range cases {
		type path struct {
			name  string
			build func() (*ir.Module, error)
		}
		paths := []path{{"fptosi", func() (*ir.Module, error) { return fptosi(tc.in), nil }}}
		if !math.IsNaN(tc.in) && !math.IsInf(tc.in, 0) {
			lit := strconv.FormatFloat(math.Abs(tc.in), 'g', -1, 64)
			if !strings.ContainsAny(lit, ".e") {
				lit += ".0"
			}
			if tc.in < 0 {
				lit = "(-" + lit + ")"
			}
			src := "int main() { return (int)" + lit + "; }"
			paths = append(paths, path{src, func() (*ir.Module, error) { return minic.CompileSource(src, "fp") }})
		}
		for _, p := range paths {
			for _, level := range []passes.Level{passes.O0, passes.O3} {
				m, err := p.build()
				if err == nil {
					err = passes.Optimize(m, level)
				}
				if err != nil {
					t.Fatalf("%s at %s: %v", p.name, level, err)
				}
				for _, eng := range engines {
					res, err := eng.Run(m, interp.Options{})
					if err != nil {
						t.Fatalf("%s: %s at %s (%g): %v", eng.Name(), p.name, level, tc.in, err)
					}
					if res.Ret != tc.want {
						t.Errorf("%s: %s at %s (%g) = %d, want %d", eng.Name(), p.name, level, tc.in, res.Ret, tc.want)
					}
				}
			}
		}
	}
}

// TestUnknownGlobalTrapsWithName pins the diagnosis for a module that uses a
// global it never registered: instead of silently evaluating to the null
// address and dying later as an opaque memory trap, the engines must trap
// immediately and name the global and the function.
func TestUnknownGlobalTrapsWithName(t *testing.T) {
	phantom := &ir.Global{Name: "phantom", Elem: ir.I64}
	m := ir.NewModule("g")
	f := m.Add(ir.NewFunction("main", ir.I64, nil, nil))
	bd := ir.NewBuilder(f.NewBlock("entry"))
	bd.Ret(bd.Load(phantom)) // phantom was never AddGlobal'ed
	for _, eng := range engines {
		_, err := eng.Run(m, interp.Options{})
		if err == nil {
			t.Fatalf("%s: unknown global did not trap", eng.Name())
		}
		for _, want := range []string{"unknown global", "@phantom", "@main"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: trap %q does not mention %q", eng.Name(), err, want)
			}
		}
	}
}

// TestAllocGrowthCappedAtMaxMem pins the arena-growth contract: an
// allocation succeeds whenever it fits under MaxMem — even when the
// doubling growth step would overshoot the cap — and fails with a plain
// "out of memory" once the demand itself exceeds MaxMem. The local array
// below needs ~128 KiB, past the 64 KiB the arena starts with, so the
// success case forces a capped growth step.
func TestAllocGrowthCappedAtMaxMem(t *testing.T) {
	const src = "int main() { int a[16384]; a[16383] = 7; return a[16383]; }"
	mod, err := minic.CompileSource(src, "alloc")
	if err != nil {
		t.Fatal(err)
	}
	const need = 16384 * 8 // array bytes; plus scalar locals and the null page
	for _, eng := range engines {
		res, err := eng.Run(mod, interp.Options{MaxMem: need + 4096})
		if err != nil {
			t.Fatalf("%s: in-budget allocation failed: %v", eng.Name(), err)
		}
		if res.Ret != 7 {
			t.Errorf("%s: ret = %d, want 7", eng.Name(), res.Ret)
		}

		_, err = eng.Run(mod, interp.Options{MaxMem: need - 8})
		if err == nil {
			t.Fatalf("%s: over-budget allocation did not fail", eng.Name())
		}
		if !strings.Contains(err.Error(), "out of memory") {
			t.Errorf("%s: error %q, want out of memory", eng.Name(), err)
		}
		if strings.Contains(err.Error(), "trap:") {
			t.Errorf("%s: out-of-memory should be a plain error, got trap %q", eng.Name(), err)
		}
	}
}
