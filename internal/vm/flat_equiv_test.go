package vm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obfus"
	"repro/internal/passes"
	"repro/internal/progen"
)

// The flat compiler must emit bit-identical bytecode to the pointer-walking
// compiler it replaced (preserved as refCompile in compile_ref_test.go):
// same instruction stream, same frame layout, same constant pools, same trap
// messages. These tests pin that over hand-written samples and a generated
// corpus, including optimized and obfuscated variants.

func typesEqual(a, b *ir.Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.String() == b.String()
}

func funcCodesIdentical(t *testing.T, label string, a, b *funcCode) {
	t.Helper()
	if a.name != b.name || a.nparams != b.nparams ||
		a.frameSize != b.frameSize || a.constBase != b.constBase {
		t.Errorf("%s: @%s: header differs: %+v vs %+v", label, a.name,
			[4]int{len(a.code), a.nparams, a.frameSize, a.constBase},
			[4]int{len(b.code), b.nparams, b.frameSize, b.constBase})
		return
	}
	if len(a.code) != len(b.code) {
		t.Errorf("%s: @%s: code length %d vs %d", label, a.name, len(a.code), len(b.code))
		return
	}
	for i := range a.code {
		if a.code[i] != b.code[i] {
			t.Errorf("%s: @%s: inst %d differs: %+v vs %+v", label, a.name, i, a.code[i], b.code[i])
			return
		}
	}
	if len(a.consts) != len(b.consts) {
		t.Errorf("%s: @%s: const pool %d vs %d", label, a.name, len(a.consts), len(b.consts))
		return
	}
	for i := range a.consts {
		if a.consts[i].i != b.consts[i].i ||
			math.Float64bits(a.consts[i].f) != math.Float64bits(b.consts[i].f) {
			t.Errorf("%s: @%s: const %d differs: %+v vs %+v", label, a.name, i, a.consts[i], b.consts[i])
			return
		}
	}
	for name, pair := range map[string][2]int{
		"extra":  {len(a.extra), len(b.extra)},
		"swVals": {len(a.swVals), len(b.swVals)},
		"swPCs":  {len(a.swPCs), len(b.swPCs)},
		"tabs":   {len(a.tabs), len(b.tabs)},
		"ipool":  {len(a.ipool), len(b.ipool)},
		"msgs":   {len(a.msgs), len(b.msgs)},
		"geps":   {len(a.geps), len(b.geps)},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: @%s: %s length %d vs %d", label, a.name, name, pair[0], pair[1])
			return
		}
	}
	for i := range a.extra {
		if a.extra[i] != b.extra[i] {
			t.Errorf("%s: @%s: extra[%d] %d vs %d", label, a.name, i, a.extra[i], b.extra[i])
			return
		}
	}
	for i := range a.swVals {
		if a.swVals[i] != b.swVals[i] || a.swPCs[i] != b.swPCs[i] {
			t.Errorf("%s: @%s: switch entry %d differs", label, a.name, i)
			return
		}
	}
	for i := range a.tabs {
		if a.tabs[i].lo != b.tabs[i].lo || !slices.Equal(a.tabs[i].pcs, b.tabs[i].pcs) {
			t.Errorf("%s: @%s: switch table %d differs", label, a.name, i)
			return
		}
	}
	for i := range a.ipool {
		if a.ipool[i] != b.ipool[i] {
			t.Errorf("%s: @%s: ipool[%d] %d vs %d", label, a.name, i, a.ipool[i], b.ipool[i])
			return
		}
	}
	for i := range a.msgs {
		if a.msgs[i] != b.msgs[i] {
			t.Errorf("%s: @%s: msg %d %q vs %q", label, a.name, i, a.msgs[i], b.msgs[i])
			return
		}
	}
	// The flat compiler resolves GEP element types through the interned type
	// pool, so compare them structurally, not by pointer.
	for i := range a.geps {
		if a.geps[i].n != b.geps[i].n || !typesEqual(a.geps[i].elem, b.geps[i].elem) {
			t.Errorf("%s: @%s: gep %d differs", label, a.name, i)
			return
		}
	}
}

// checkCompileEquiv compiles m with the pointer oracle and the flat compiler
// and requires identical programs.
func checkCompileEquiv(t *testing.T, label string, m *ir.Module) {
	t.Helper()
	ref, refErr := refCompile(m)
	got, gotErr := Compile(m)
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: ref %v, flat %v", label, refErr, gotErr)
	}
	if refErr != nil {
		if refErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text: ref %q, flat %q", label, refErr, gotErr)
		}
		return
	}
	if len(ref.funcs) != len(got.funcs) {
		t.Fatalf("%s: func count %d vs %d", label, len(ref.funcs), len(got.funcs))
	}
	for i := range ref.funcs {
		funcCodesIdentical(t, label, ref.funcs[i], got.funcs[i])
	}
	if ref.main != got.main || ref.mainDecl != got.mainDecl {
		t.Fatalf("%s: main %d/%v vs %d/%v", label, ref.main, ref.mainDecl, got.main, got.mainDecl)
	}
	if (ref.entry == nil) != (got.entry == nil) {
		t.Fatalf("%s: entry nil mismatch", label)
	}
	if ref.entry != nil {
		funcCodesIdentical(t, label+" (entry)", ref.entry, got.entry)
	}
}

func compileEquivMod(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := minic.CompileSource(src, "equiv")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompileFlatEquivalenceSamples(t *testing.T) {
	samples := map[string]string{
		"scalar": `int main() { int a = 3; int b = 4; return a * b + 1; }`,
		"control": `int main() { int s = 0;
			for (int i = 0; i < 30; i++) { if (i % 2 == 0) s += i; else s -= 1; }
			while (s > 10) s /= 3;
			return s; }`,
		"calls_builtins": `
			float mix(float a, float b) { return a * 0.5 + b; }
			int main() { float x = mix(2.5, 3.0); print(x); print((int)x); return (int)(x * sqrt(4.0)); }`,
		"switch": `int main() { int s = 0;
			for (int i = 0; i < 10; i++) { switch (i % 5) { case 0: s += 1; break; case 3: s += 7; break; default: s -= 1; } }
			return s; }`,
		"memory": `
			struct P { int x; float y; int a[4]; };
			int g[8];
			int main() { struct P p; p.x = 2; p.y = 1.5;
				for (int i = 0; i < 4; i++) p.a[i] = i * p.x;
				for (int i = 0; i < 8; i++) g[i] = p.a[i % 4];
				int *q = &g[3]; *q += 100;
				return g[3] + p.a[2] + (int)p.y; }`,
		// main with parameters: forces the no-args entry variant, whose every
		// parameter use compiles to a "missing argument" trap.
		"main_with_params": `int main(int argc) { if (argc > 0) return argc; return 7; }`,
		"recursion": `
			int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
			int main() { return fib(12); }`,
		"floats": `int main() { float a = -0.0; float b = 1e-3; float c = a - b;
			if (c < 0.0) return (int)(b * 1e6); return 0; }`,
	}
	for label, src := range samples {
		checkCompileEquiv(t, label, compileEquivMod(t, src))
	}
}

func TestCompileFlatEquivalenceProgenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("200-program corpus is not for -short")
	}
	for seed := int64(0); seed < 200; seed++ {
		src := progen.GenerateSeed(seed)
		m, err := minic.CompileSource(src, "gen")
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		checkCompileEquiv(t, fmt.Sprintf("progen seed %d", seed), m)
	}
}

// Optimized and obfuscated variants exercise compilation of transformed IR:
// phi-heavy blocks from mem2reg (edge-stub scheduling), flattened dispatch
// switches, opaque predicates over globals.
func TestCompileFlatEquivalenceTransformed(t *testing.T) {
	if testing.Short() {
		t.Skip("transformed corpus is not for -short")
	}
	for seed := int64(0); seed < 40; seed++ {
		src := progen.GenerateSeed(seed)
		for _, level := range []passes.Level{passes.O2, passes.O3} {
			m, err := minic.CompileSource(src, "gen")
			if err != nil {
				t.Fatalf("seed %d: compile: %v", seed, err)
			}
			if err := passes.Optimize(m, level); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, level, err)
			}
			checkCompileEquiv(t, fmt.Sprintf("progen seed %d %s", seed, level), m)
		}
		for _, ob := range obfus.Names() {
			m, err := minic.CompileSource(src, "gen")
			if err != nil {
				t.Fatalf("seed %d: compile: %v", seed, err)
			}
			if err := obfus.Apply(m, ob, rand.New(rand.NewSource(seed))); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, ob, err)
			}
			checkCompileEquiv(t, fmt.Sprintf("progen seed %d %s", seed, ob), m)
		}
	}
}
