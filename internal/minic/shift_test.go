package minic_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/vm"
)

// wantRetEngines compiles src once and runs it on the tree interpreter and
// the bytecode VM, requiring each to return want. Regression tests for
// semantics bugs go through here so a fix in the front end is pinned under
// both executors.
func wantRetEngines(t *testing.T, src string, want int64) {
	t.Helper()
	mod, err := minic.CompileSource(src, "test")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, eng := range []interp.Engine{interp.Tree, vm.Engine{}} {
		res, err := eng.Run(mod, interp.Options{})
		if err != nil {
			t.Fatalf("engine %s: %v\nIR:\n%s", eng.Name(), err, mod.String())
		}
		if res.Ret != want {
			t.Errorf("engine %s: ret = %d, want %d\nsrc: %s", eng.Name(), res.Ret, want, src)
		}
	}
}

// TestShiftCountFolding pins the constant-folding fix for shift counts
// outside [0, 63]: the folder must mask the count by 63 exactly like the
// runtime Shl/AShr ops do, instead of hitting Go's shift semantics (which
// panic on negative counts and flush to 0/-1 on counts >= 64). Counts -1,
// 63, 64 and 65 bracket the mask boundary; both shift directions and both
// the constant-folded and the runtime path must agree, on both engines.
func TestShiftCountFolding(t *testing.T) {
	cases := []struct {
		x, n int64
	}{
		{1, -1}, {1, 63}, {1, 64}, {1, 65},
		{-8, -1}, {-8, 63}, {-8, 64}, {-8, 65},
		{5, -1}, {5, 63}, {5, 64}, {5, 65},
	}
	for _, tc := range cases {
		sh := uint64(tc.n) & 63
		wantShl := tc.x << sh
		wantShr := tc.x >> sh

		// Constant path: the whole shift is a literal expression, so the
		// front end folds it at compile time.
		wantRetEngines(t,
			fmt.Sprintf("int main() { return %d << %d; }", tc.x, tc.n), wantShl)
		wantRetEngines(t,
			fmt.Sprintf("int main() { return %d >> %d; }", tc.x, tc.n), wantShr)

		// Runtime path: the operands arrive through function parameters, so
		// the shift survives to an IR Shl/AShr and executes in the engine.
		wantRetEngines(t, fmt.Sprintf(
			"int shl(int x, int n) { return x << n; } int main() { return shl(%d, %d); }",
			tc.x, tc.n), wantShl)
		wantRetEngines(t, fmt.Sprintf(
			"int shr(int x, int n) { return x >> n; } int main() { return shr(%d, %d); }",
			tc.x, tc.n), wantShr)
	}

	// The mask boundary in one number: count -1 masks to 63, so 1 << -1 is
	// MinInt64 rather than a panic or zero.
	wantRetEngines(t, "int main() { return (1 << -1) == (1 << 63); }", 1)
	wantRetEngines(t, "int main() { return 1 << 63; }", math.MinInt64)
}
