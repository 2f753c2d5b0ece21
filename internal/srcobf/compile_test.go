package srcobf_test

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minic"
	"repro/internal/srcobf"
)

// TestCompileLeavesASTUnchanged: minic.Compile must not mutate the AST it
// lowers, whether it succeeds or fails. The search shares ASTs between
// members and candidates and compiles them in place (FlatView, the one
// compile at the end of every replay, the per-step probes of its fallback),
// so a compile that rewrote its input would change the programs it
// validates. Every program is printed before and after compiling; the two
// prints must match.
func TestCompileLeavesASTUnchanged(t *testing.T) {
	set, err := dataset.Generate(4, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	var ok []string
	for _, s := range set.Samples {
		ok = append(ok, s.Source)
	}
	for _, b := range dataset.BenchGame() {
		ok = append(ok, b.Source)
	}
	// srcobf outputs: every transform applied alone, and every strategy's
	// winner, over the dataset programs.
	for i, s := range set.Samples {
		f, err := minic.Parse(s.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, tf := range srcobf.Transforms() {
			g, _ := minic.Parse(minic.Print(f))
			if tf.Apply(g, rand.New(rand.NewSource(int64(i+1)))) {
				ok = append(ok, minic.Print(g))
			}
		}
		for _, strat := range srcobf.StrategyNames() {
			out, err := srcobf.TransformSource(s.Source, strat, rand.New(rand.NewSource(int64(i+1))))
			if err != nil {
				t.Fatal(err)
			}
			ok = append(ok, out)
		}
	}
	// Programs that parse but fail to compile, some only after earlier
	// functions were lowered.
	bad := []string{
		"int main() { return x; }",
		"int main() { return f(1); }",
		"int f(int a);\nint main() { return f(1); }",
		"int main() { struct S s; return 0; }",
		"int main() { break; return 0; }",
		"int main() { continue; }",
		"int g(int a) { int b = a; while (b > 0) { b = b - 1; } return b; }\nint main() { int k = g(2); k += 1; return k + y; }",
		"int main() { int a[3]; a = 2; return 0; }",
		"struct P { int x; };\nint main() { struct P p; p.x = 1; return p.y; }",
		"int main() { return 1; }\nint main() { return 2; }",
	}
	check := func(src string, wantErr bool) {
		t.Helper()
		f, err := minic.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		before := minic.Print(f)
		_, err = minic.Compile(f, "purity")
		if (err != nil) != wantErr {
			t.Fatalf("compile error = %v, want error %v\n%s", err, wantErr, src)
		}
		if after := minic.Print(f); after != before {
			t.Fatalf("Compile (error %v) mutated its input:\n--- before\n%s\n--- after\n%s", err, before, after)
		}
	}
	for _, src := range ok {
		check(src, false)
	}
	for _, src := range bad {
		check(src, true)
	}
	if len(ok) < 100 {
		t.Fatalf("only %d compiling programs checked", len(ok))
	}
}
