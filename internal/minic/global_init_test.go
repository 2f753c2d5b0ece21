package minic_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/vm"
)

// TestGlobalInitializersMatchRuntime pins the front end's compile-time
// evaluation of global initializers to the engines: each `int g = <expr>;`
// must hold what the same expression computes in main, where every
// operator executes as an instruction (an operand that is itself an
// operation reaches a conversion at run time too), and both must equal the
// row's value on both engines.
func TestGlobalInitializersMatchRuntime(t *testing.T) {
	cases := []struct {
		expr string
		want int64
	}{
		{"7 / 2", 3},
		{"-7 / 2", -3},
		{"-7 % 3", -1},
		{"7 % -3", 1},
		{"1 << 64", 1},
		{"1 << 65", 2},
		{"1 << -1", math.MinInt64},
		{"-8 >> 64", -8},
		{"(-9223372036854775807 - 1) / -1", math.MinInt64},
		{"(-9223372036854775807 - 1) % -1", 0},
		{"9223372036854775807 + 1", math.MinInt64},
		{"'A' + 1", 66},
		{"7 / 2.0", 3},
		{"1e30", math.MaxInt64},
		{"1e30 * 1.0", math.MaxInt64},
		{"-1e30 * 1.0", math.MinInt64},
		{"~1.5", -2},
		{"5.5 % 2.0", 1},
	}
	engines := []interp.Engine{interp.Tree, vm.Engine{}}
	for _, tc := range cases {
		src := fmt.Sprintf("int g = %s;\nint main() { int x = %s; print(g); print(x); return 0; }", tc.expr, tc.expr)
		m, err := minic.CompileSource(src, "global")
		if err != nil {
			t.Errorf("%s: %v", tc.expr, err)
			continue
		}
		want := fmt.Sprintf("%d\n%d\n", tc.want, tc.want)
		for _, eng := range engines {
			res, err := eng.Run(m, interp.Options{})
			if err != nil {
				t.Fatalf("%s: %s: %v", eng.Name(), tc.expr, err)
			}
			if res.Output != want {
				t.Errorf("%s: %s: global, then run time:\n%s want both %d", eng.Name(), tc.expr, res.Output, tc.want)
			}
		}
	}
}
