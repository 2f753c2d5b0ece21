package passes_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/passes"
)

// compile builds a module from source.
func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := minic.CompileSource(src, "test")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

// runMod executes a module and returns (ret, output).
func runMod(t *testing.T, m *ir.Module) (int64, string) {
	t.Helper()
	res, err := interp.Run(m, interp.Options{})
	if err != nil {
		t.Fatalf("run: %v\nIR:\n%s", err, m.String())
	}
	return res.Ret, res.Output
}

// mustVerify fails the test when a transform has left the module malformed.
// Every test that applies a pass must call this (or verify inline): shape
// assertions alone let dominance and terminator bugs slip through.
func mustVerify(t *testing.T, m *ir.Module) {
	t.Helper()
	if err := m.Verify(); err != nil {
		t.Fatalf("invalid IR after transform: %v\n%s", err, m.String())
	}
}

// checkSemanticsPreserved optimizes a copy at every level and verifies the
// observable behaviour is identical.
func checkSemanticsPreserved(t *testing.T, src string) {
	t.Helper()
	base := compile(t, src)
	wantRet, wantOut := runMod(t, base)
	for _, lvl := range []passes.Level{passes.O1, passes.O2, passes.O3} {
		m := compile(t, src)
		if err := passes.Optimize(m, lvl); err != nil {
			t.Fatalf("%s: %v", lvl, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("%s: invalid IR: %v\n%s", lvl, err, m.String())
		}
		got, out := runMod(t, m)
		if got != wantRet || out != wantOut {
			t.Fatalf("%s changed behaviour: ret %d->%d, out %q->%q\nIR:\n%s",
				lvl, wantRet, got, wantOut, out, m.String())
		}
	}
}

var semanticPrograms = []struct {
	name string
	src  string
}{
	{"sum_loop", `int main() { int s = 0; for (int i = 0; i < 50; i++) s += i; return s; }`},
	{"fib_rec", `int fib(int n) { if (n < 2) return n; return fib(n-1)+fib(n-2); }
		int main() { return fib(15); }`},
	{"array_sort", `int main() {
		int a[10] = {9, 3, 7, 1, 8, 2, 6, 0, 5, 4};
		for (int i = 0; i < 10; i++)
			for (int j = 0; j + 1 < 10 - i; j++)
				if (a[j] > a[j+1]) { int t = a[j]; a[j] = a[j+1]; a[j+1] = t; }
		int code = 0;
		for (int i = 0; i < 10; i++) code = code * 10 + a[i];
		return code % 1000000007;
	}`},
	{"nested_branches", `int main() {
		int r = 0;
		for (int i = 0; i < 30; i++) {
			if (i % 3 == 0) r += 1;
			else if (i % 3 == 1) r += 10;
			else r += 100;
		}
		return r;
	}`},
	{"switch_machine", `int main() {
		int state = 0; int steps = 0;
		while (steps < 20) {
			switch (state) {
			case 0: state = 1; break;
			case 1: state = 2; break;
			case 2: state = 0; steps += 2; break;
			default: state = 0;
			}
			steps++;
		}
		return state * 100 + steps;
	}`},
	{"floats", `int main() {
		float acc = 0.0;
		for (int i = 1; i <= 20; i++) acc += 1.0 / (i * i);
		return (int)(acc * 100000.0);
	}`},
	{"pointers_swap", `
	void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
	int main() {
		int x = 3; int y = 9;
		for (int i = 0; i < 5; i++) swap(&x, &y);
		return x * 10 + y;
	}`},
	{"globals", `
	int g = 7;
	int bump(int d) { g += d; return g; }
	int main() { int a = bump(1); int b = bump(2); return g * 100 + a * 10 + b % 10; }`},
	{"shortcircuit", `
	int calls = 0;
	int check(int v) { calls++; return v; }
	int main() {
		int r = 0;
		if (check(0) && check(1)) r += 1;
		if (check(1) || check(1)) r += 2;
		return calls * 10 + r;
	}`},
	{"strings", `int main() {
		char buf[16];
		int n = 0;
		buf[n++] = 'o'; buf[n++] = 'k'; buf[n] = 0;
		int sum = 0;
		for (int i = 0; buf[i]; i++) sum += buf[i];
		return sum;
	}`},
	{"do_while_break", `int main() {
		int n = 0; int i = 0;
		do {
			i++;
			if (i > 7) break;
			if (i % 2) continue;
			n += i;
		} while (i < 100);
		return n * 100 + i;
	}`},
	{"matrix", `int main() {
		int a[4][4]; int b[4][4]; int c[4][4];
		for (int i = 0; i < 4; i++)
			for (int j = 0; j < 4; j++) { a[i][j] = i + j; b[i][j] = i - j; c[i][j] = 0; }
		for (int i = 0; i < 4; i++)
			for (int j = 0; j < 4; j++)
				for (int k = 0; k < 4; k++)
					c[i][j] += a[i][k] * b[k][j];
		int tr = 0;
		for (int i = 0; i < 4; i++) tr += c[i][i];
		return tr + 1000;
	}`},
	{"ternary_chain", `int main() {
		int s = 0;
		for (int i = 0; i < 16; i++)
			s += i < 4 ? 1 : i < 8 ? 2 : i < 12 ? 3 : 4;
		return s;
	}`},
	{"char_arith", `int main() {
		char c = 'a';
		int s = 0;
		for (int i = 0; i < 26; i++) s += c + i;
		return s;
	}`},
	{"early_return", `
	int f(int x) {
		if (x < 0) return -1;
		if (x == 0) return 0;
		return 1;
	}
	int main() { return f(-5)*100 + f(0)*10 + f(5) + 111; }`},
}

func TestSemanticsPreservedAcrossLevels(t *testing.T) {
	for _, tc := range semanticPrograms {
		t.Run(tc.name, func(t *testing.T) { checkSemanticsPreserved(t, tc.src) })
	}
}

func countOp(m *ir.Module, op ir.Opcode) int {
	n := 0
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op == op {
				n++
			}
		})
	}
	return n
}

func TestMem2RegRemovesScalarTraffic(t *testing.T) {
	m := compile(t, `int main() {
		int a = 1; int b = 2; int c;
		c = a + b;
		for (int i = 0; i < 10; i++) c += i;
		return c;
	}`)
	before := countOp(m, ir.OpLoad) + countOp(m, ir.OpStore)
	if before == 0 {
		t.Fatal("O0 code should contain loads/stores")
	}
	if _, err := passes.RunPass(m, "mem2reg"); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("invalid IR after mem2reg: %v\n%s", err, m.String())
	}
	after := countOp(m, ir.OpLoad) + countOp(m, ir.OpStore)
	if after != 0 {
		t.Fatalf("mem2reg left %d memory ops (had %d):\n%s", after, before, m.String())
	}
	if countOp(m, ir.OpPhi) == 0 {
		t.Fatal("expected phi nodes for the loop-carried variable")
	}
	ret, _ := runMod(t, m)
	if ret != 48 {
		t.Fatalf("ret = %d, want 48", ret)
	}
}

func TestMem2RegSkipsEscapedAllocas(t *testing.T) {
	m := compile(t, `
	void set(int *p) { *p = 9; }
	int main() { int x = 1; set(&x); return x; }`)
	if _, err := passes.RunPass(m, "mem2reg"); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, m)
	ret, _ := runMod(t, m)
	if ret != 9 {
		t.Fatalf("escaped alloca mispromoted: ret = %d, want 9", ret)
	}
}

func TestSCCPFoldsConstantBranches(t *testing.T) {
	m := compile(t, `int main() {
		int x = 3;
		if (x * 2 == 6) return 10;
		return 20;
	}`)
	if _, err := passes.RunPass(m, "mem2reg"); err != nil {
		t.Fatal(err)
	}
	if _, err := passes.RunPass(m, "sccp"); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, m)
	if got := countOp(m, ir.OpCondBr); got != 0 {
		t.Fatalf("sccp left %d conditional branches:\n%s", got, m.String())
	}
	ret, _ := runMod(t, m)
	if ret != 10 {
		t.Fatalf("ret = %d, want 10", ret)
	}
}

func TestSCCPThroughPhis(t *testing.T) {
	// Both arms assign the same constant, so the phi is constant and the
	// comparison below folds.
	m := compile(t, `int main() {
		int x;
		if (input()) x = 5; else x = 5;
		if (x == 5) return 1;
		return 2;
	}`)
	if _, err := passes.RunPass(m, "mem2reg"); err != nil {
		t.Fatal(err)
	}
	if _, err := passes.RunPass(m, "sccp"); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, m)
	res, err := interp.Run(m, interp.Options{Input: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 1 {
		t.Fatalf("ret = %d, want 1", res.Ret)
	}
	// The x == 5 comparison must be gone even though input() is unknown;
	// the icmp that remains is the truthiness test on input() itself.
	found := false
	m.Func("main").ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.OpICmp && in.Pred == ir.CmpEQ {
			found = true
		}
	})
	if found {
		t.Fatalf("comparison against constant phi not folded:\n%s", m.String())
	}
}

func TestDCERemovesDeadChains(t *testing.T) {
	m := ir.NewModule("dce")
	f := m.Add(ir.NewFunction("f", ir.I64, []string{"x"}, []*ir.Type{ir.I64}))
	b := f.NewBlock("entry")
	bd := ir.NewBuilder(b)
	d1 := bd.Add(f.Params[0], ir.ConstInt(ir.I64, 1))
	bd.Mul(d1, d1) // dead chain
	live := bd.Add(f.Params[0], ir.ConstInt(ir.I64, 2))
	bd.Ret(live)
	if !passes.DCE(f) {
		t.Fatal("DCE found nothing")
	}
	mustVerify(t, m)
	if f.NumInstrs() != 2 {
		t.Fatalf("expected 2 instructions left, have %d:\n%s", f.NumInstrs(), f.String())
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	m := compile(t, `int main() { print(7); return 0; }`)
	passes.DCE(m.Func("main"))
	mustVerify(t, m)
	_, out := runMod(t, m)
	if out != "7\n" {
		t.Fatalf("DCE removed a call with side effects; output %q", out)
	}
}

func TestInstCombineIdentities(t *testing.T) {
	m := ir.NewModule("ic")
	f := m.Add(ir.NewFunction("f", ir.I64, []string{"x"}, []*ir.Type{ir.I64}))
	b := f.NewBlock("entry")
	bd := ir.NewBuilder(b)
	v := bd.Add(f.Params[0], ir.ConstInt(ir.I64, 0)) // x + 0
	v2 := bd.Mul(v, ir.ConstInt(ir.I64, 1))          // x * 1
	v3 := bd.Sub(v2, f.Params[0])                    // x - x = 0
	v4 := bd.Add(v3, f.Params[0])                    // 0 + x
	bd.Ret(v4)
	passes.InstCombine(f)
	passes.DCE(f)
	mustVerify(t, m)
	if f.NumInstrs() != 1 {
		t.Fatalf("expected only ret left:\n%s", f.String())
	}
	ret := f.Entry().Term()
	if ret.Args[0] != ir.Value(f.Params[0]) {
		t.Fatalf("f(x) should reduce to x:\n%s", f.String())
	}
}

// TestInstCombineUndoesMBA verifies the inverse rules for O-LLVM's
// instruction substitution identities.
func TestInstCombineUndoesMBA(t *testing.T) {
	build := func(emit func(bd *ir.Builder, a, b ir.Value) ir.Value) *ir.Function {
		m := ir.NewModule("mba")
		f := m.Add(ir.NewFunction("f", ir.I64, []string{"a", "b"}, []*ir.Type{ir.I64, ir.I64}))
		blk := f.NewBlock("entry")
		bd := ir.NewBuilder(blk)
		bd.Ret(emit(bd, f.Params[0], f.Params[1]))
		return f
	}
	cases := []struct {
		name string
		emit func(bd *ir.Builder, a, b ir.Value) ir.Value
		want ir.Opcode
	}{
		{"xor_plus_2and", func(bd *ir.Builder, a, b ir.Value) ir.Value {
			x := bd.Xor(a, b)
			n := bd.And(a, b)
			s := bd.Binary(ir.OpShl, n, ir.ConstInt(ir.I64, 1))
			return bd.Add(x, s)
		}, ir.OpAdd},
		{"or_plus_and", func(bd *ir.Builder, a, b ir.Value) ir.Value {
			o := bd.Or(a, b)
			n := bd.And(a, b)
			return bd.Add(o, n)
		}, ir.OpAdd},
		{"sub_via_neg", func(bd *ir.Builder, a, b ir.Value) ir.Value {
			neg := bd.Sub(ir.ConstInt(ir.I64, 0), b)
			return bd.Add(a, neg)
		}, ir.OpSub},
		{"and_via_xornot", func(bd *ir.Builder, a, b ir.Value) ir.Value {
			nb := bd.Xor(b, ir.ConstInt(ir.I64, -1))
			x := bd.Xor(a, nb)
			return bd.And(x, a)
		}, ir.OpAnd},
		{"or_via_and_xor", func(bd *ir.Builder, a, b ir.Value) ir.Value {
			n := bd.And(a, b)
			x := bd.Xor(a, b)
			return bd.Or(n, x)
		}, ir.OpOr},
		{"xor_via_nots", func(bd *ir.Builder, a, b ir.Value) ir.Value {
			na := bd.Xor(a, ir.ConstInt(ir.I64, -1))
			nb := bd.Xor(b, ir.ConstInt(ir.I64, -1))
			l := bd.And(na, b)
			r := bd.And(a, nb)
			return bd.Or(l, r)
		}, ir.OpXor},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := build(tc.emit)
			passes.InstCombine(f)
			passes.DCE(f)
			mustVerify(t, f.Mod)
			if f.NumInstrs() != 2 {
				t.Fatalf("expected [op, ret], got:\n%s", f.String())
			}
			op := f.Entry().Instrs[0].Op
			if op != tc.want {
				t.Fatalf("reduced to %s, want %s:\n%s", op, tc.want, f.String())
			}
			// Verify semantics on sample inputs.
			mach, err := interp.NewMachine(f.Mod, interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range [][2]int64{{3, 5}, {-7, 11}, {0, 0}, {123456, -987654}} {
				got, err := mach.Call("f", interp.Val{I: pair[0]}, interp.Val{I: pair[1]})
				if err != nil {
					t.Fatal(err)
				}
				var want int64
				switch tc.want {
				case ir.OpAdd:
					want = pair[0] + pair[1]
				case ir.OpSub:
					want = pair[0] - pair[1]
				case ir.OpAnd:
					want = pair[0] & pair[1]
				case ir.OpOr:
					want = pair[0] | pair[1]
				case ir.OpXor:
					want = pair[0] ^ pair[1]
				}
				if got.I != want {
					t.Fatalf("f(%d,%d) = %d, want %d", pair[0], pair[1], got.I, want)
				}
			}
		})
	}
}

func TestSimplifyCFGMergesChains(t *testing.T) {
	m := compile(t, `int main() {
		int x = input();
		int r;
		if (x > 0) { r = 1; } else { r = 2; }
		return r;
	}`)
	passes.Mem2Reg(m.Func("main"))
	passes.SimplifyCFG(m.Func("main"))
	if err := m.Verify(); err != nil {
		t.Fatalf("invalid after simplifycfg: %v", err)
	}
	// Diamond should remain (condition is runtime), but each arm is just a
	// jump, so the function should have collapsed to at most 4 blocks.
	if n := len(m.Func("main").Blocks); n > 4 {
		t.Fatalf("too many blocks after simplifycfg: %d\n%s", n, m.String())
	}
	res, err := interp.Run(m, interp.Options{Input: []int64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 1 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

func TestGVNEliminatesRedundancy(t *testing.T) {
	m := ir.NewModule("gvn")
	f := m.Add(ir.NewFunction("f", ir.I64, []string{"a", "b"}, []*ir.Type{ir.I64, ir.I64}))
	b := f.NewBlock("entry")
	bd := ir.NewBuilder(b)
	x := bd.Add(f.Params[0], f.Params[1])
	y := bd.Add(f.Params[1], f.Params[0]) // commuted duplicate
	z := bd.Mul(x, y)
	bd.Ret(z)
	passes.GVN(f)
	mustVerify(t, m)
	if f.NumInstrs() != 3 {
		t.Fatalf("commuted add not value-numbered:\n%s", f.String())
	}
	mul := f.Entry().Instrs[1]
	if mul.Args[0] != mul.Args[1] {
		t.Fatalf("mul operands should be the same value:\n%s", f.String())
	}
}

func TestGVNRespectsDominance(t *testing.T) {
	// The same expression in two sibling branches must NOT be unified.
	m := compile(t, `int main() {
		int x = input();
		int r;
		if (x > 0) r = x * 3; else r = x * 3 + 1;
		return r;
	}`)
	passes.Mem2Reg(m.Func("main"))
	passes.GVN(m.Func("main"))
	if err := m.Verify(); err != nil {
		t.Fatalf("GVN broke dominance: %v\n%s", err, m.String())
	}
	res, err := interp.Run(m, interp.Options{Input: []int64{-2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != -5 {
		t.Fatalf("ret = %d, want -5", res.Ret)
	}
}

func TestLICMHoistsInvariant(t *testing.T) {
	m := compile(t, `int main() {
		int n = input();
		int s = 0;
		for (int i = 0; i < 100; i++) {
			s += n * n;
		}
		return s;
	}`)
	f := m.Func("main")
	passes.Mem2Reg(f)
	passes.LICM(f)
	if err := m.Verify(); err != nil {
		t.Fatalf("LICM broke IR: %v\n%s", err, m.String())
	}
	// n*n must now be outside the loop: check the mul is not in any loop.
	dt := ir.NewDomTree(f)
	loops := dt.NaturalLoops()
	for _, l := range loops {
		for b := range l.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpMul {
					t.Fatalf("mul still inside loop:\n%s", f.String())
				}
			}
		}
	}
	res, err := interp.Run(m, interp.Options{Input: []int64{3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 900 {
		t.Fatalf("ret = %d, want 900", res.Ret)
	}
}

func TestInlineSmallFunctions(t *testing.T) {
	m := compile(t, `
	int sq(int x) { return x * x; }
	int main() { return sq(3) + sq(4); }`)
	if !passes.Inline(m, 60) {
		t.Fatal("nothing inlined")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("inline broke IR: %v\n%s", err, m.String())
	}
	calls := countOp(m, ir.OpCall)
	if calls != 0 {
		t.Fatalf("%d calls remain after inlining:\n%s", calls, m.String())
	}
	ret, _ := runMod(t, m)
	if ret != 25 {
		t.Fatalf("ret = %d, want 25", ret)
	}
}

func TestInlineSkipsRecursive(t *testing.T) {
	m := compile(t, `
	int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
	int main() { return fact(5); }`)
	passes.Inline(m, 1000)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	ret, _ := runMod(t, m)
	if ret != 120 {
		t.Fatalf("ret = %d, want 120", ret)
	}
	if countOp(m, ir.OpCall) == 0 {
		t.Fatal("recursive function should not be fully inlined")
	}
}

func TestO3ShrinksDynamicInstructionCount(t *testing.T) {
	src := `int main() {
		int s = 0;
		for (int i = 0; i < 200; i++) {
			int a = i * 2;
			int b = i * 2;
			s += a + b - a;
		}
		return s % 1000;
	}`
	m0 := compile(t, src)
	r0, err := interp.Run(m0, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m3 := compile(t, src)
	if err := passes.Optimize(m3, passes.O3); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, m3)
	r3, err := interp.Run(m3, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Ret != r0.Ret {
		t.Fatalf("O3 changed result: %d vs %d", r3.Ret, r0.Ret)
	}
	if r3.Steps >= r0.Steps {
		t.Fatalf("O3 did not speed up: %d -> %d steps", r0.Steps, r3.Steps)
	}
	if float64(r3.Steps) > 0.7*float64(r0.Steps) {
		t.Fatalf("O3 speedup too small: %d -> %d steps", r0.Steps, r3.Steps)
	}
}

func TestParseLevel(t *testing.T) {
	for _, s := range []string{"O0", "O1", "O2", "O3", "-O2", "3"} {
		if _, err := passes.ParseLevel(s); err != nil {
			t.Errorf("ParseLevel(%q): %v", s, err)
		}
	}
	if _, err := passes.ParseLevel("O9"); err == nil {
		t.Error("ParseLevel(O9) should fail")
	}
}

// TestRandomProgramsPreserved is a lightweight property test: random
// straight-line+loop programs must behave identically at every level.
func TestRandomProgramsPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 30; trial++ {
		src := randomProgram(rng)
		base := compile(t, src)
		want, err := interp.Run(base, interp.Options{})
		if err != nil {
			t.Fatalf("trial %d: base run: %v\n%s", trial, err, src)
		}
		for _, lvl := range []passes.Level{passes.O1, passes.O2, passes.O3} {
			m := compile(t, src)
			if err := passes.Optimize(m, lvl); err != nil {
				t.Fatalf("trial %d %s: %v\n%s", trial, lvl, err, src)
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("trial %d %s: invalid IR: %v\nsource:\n%s", trial, lvl, err, src)
			}
			got, err := interp.Run(m, interp.Options{})
			if err != nil {
				t.Fatalf("trial %d %s run: %v\n%s", trial, lvl, err, src)
			}
			if got.Ret != want.Ret {
				t.Fatalf("trial %d %s: ret %d, want %d\nsource:\n%s\nIR:\n%s",
					trial, lvl, got.Ret, want.Ret, src, m.String())
			}
		}
	}
}

// randomProgram emits a small random MiniC program using int arithmetic,
// branches and bounded loops.
func randomProgram(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("int main() {\n")
	vars := []string{"a", "b", "c"}
	for i, v := range vars {
		fmt.Fprintf(&sb, "  int %s = %d;\n", v, rng.Intn(21)-10+i)
	}
	nstmt := 4 + rng.Intn(5)
	for i := 0; i < nstmt; i++ {
		v := vars[rng.Intn(len(vars))]
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, "  %s = %s %s %d;\n", v, vars[rng.Intn(len(vars))],
				[]string{"+", "-", "*", "^", "&", "|"}[rng.Intn(6)], rng.Intn(9)+1)
		case 1:
			fmt.Fprintf(&sb, "  if (%s %s %d) { %s += %d; } else { %s -= %d; }\n",
				vars[rng.Intn(len(vars))], []string{"<", ">", "==", "!="}[rng.Intn(4)],
				rng.Intn(10), v, rng.Intn(5), v, rng.Intn(5))
		case 2:
			fmt.Fprintf(&sb, "  for (int i%d = 0; i%d < %d; i%d++) { %s += i%d; }\n",
				i, i, rng.Intn(8)+1, i, v, i)
		case 3:
			fmt.Fprintf(&sb, "  %s = (%s * %d + %s) %% 1000;\n", v,
				vars[rng.Intn(len(vars))], rng.Intn(7)+1, vars[rng.Intn(len(vars))])
		}
	}
	sb.WriteString("  int r = (a ^ b) + c;\n  return r % 100000;\n}\n")
	return sb.String()
}

// TestDebugModePinpointsPassBreakage walks the O3 pipeline pass by pass over
// a battery of programs, verifying every function after every pass, so a
// pass that emits invalid IR fails with its own name.
func TestDebugModePinpointsPassBreakage(t *testing.T) {
	for _, tc := range semanticPrograms {
		m := compile(t, tc.src)
		passes.Inline(m, 60)
		for _, stage := range passes.O3Stages() {
			for _, f := range m.Functions {
				if f.IsDecl() {
					continue
				}
				for _, p := range stage {
					p.Run(f)
					if err := f.Verify(); err != nil {
						t.Fatalf("%s: %s broke @%s: %v\n%s", tc.name, p.Name, f.Name, err, f.String())
					}
				}
			}
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestTortureProgram drives every language feature through every
// optimization level at once.
func TestTortureProgram(t *testing.T) {
	checkSemanticsPreserved(t, `
	struct Stats { int n; float mean; };
	int fibs[16];
	int fib(int n) {
		if (n < 2) return n;
		if (fibs[n]) return fibs[n];
		fibs[n] = fib(n - 1) + fib(n - 2);
		return fibs[n];
	}
	void observe(struct Stats *s, float x) {
		s->n++;
		s->mean += (x - s->mean) / s->n;
	}
	int main() {
		struct Stats st;
		st.n = 0;
		st.mean = 0.0;
		char tag[4];
		tag[0] = 'o'; tag[1] = 'k'; tag[2] = 0;
		int acc = 0;
		for (int i = 0; i < 14; i++) {
			observe(&st, fib(i) * 1.0);
			switch (i % 4) {
			case 0: acc += fib(i); break;
			case 1: acc ^= i << 2; break;
			case 2: acc -= tag[i % 2]; break;
			default: acc = acc * 3 % 10007;
			}
		}
		int code = st.n * 1000 + (int)st.mean;
		return (acc + code) % 1000000007;
	}`)
}
