package srcobf_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/passes"
	"repro/internal/srcobf"
)

var programs = []struct {
	name string
	src  string
}{
	{"loops_and_branches", `
	int main() {
		int s = 0;
		for (int i = 0; i < 25; i++) {
			if (i % 3 == 0) s += i * 2;
			else if (i % 3 == 1) s -= 1;
			else s ^= i;
		}
		int j = 0;
		while (j < 5) { s += j; j++; }
		return s;
	}`},
	{"switchy", `
	int cat(int x) {
		switch (x % 4) {
		case 0: return 10;
		case 1: return 20;
		case 2: return 30;
		default: return 40;
		}
	}
	int main() {
		int acc = 0;
		for (int i = 0; i < 16; i++) acc += cat(i);
		return acc;
	}`},
	{"arrays_ternary", `
	int main() {
		int a[12];
		for (int i = 0; i < 12; i++) a[i] = i * i - 3;
		int mx = a[0];
		for (int i = 1; i < 12; i++) mx = a[i] > mx ? a[i] : mx;
		int s = 0;
		do { s += mx; mx--; } while (mx > 100);
		return s + a[5];
	}`},
	{"recursion", `
	int gcd(int a, int b) {
		if (b == 0) return a;
		return gcd(b, a % b);
	}
	int main() { return gcd(252, 105) * 10 + gcd(17, 5); }`},
}

func behaviour(t *testing.T, src string) (int64, string) {
	t.Helper()
	m, err := minic.CompileSource(src, "t")
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	res, err := interp.Run(m, interp.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Ret, res.Output
}

// TestEachTransformPreservesSemantics applies every transform individually
// with multiple seeds.
func TestEachTransformPreservesSemantics(t *testing.T) {
	for _, prog := range programs {
		wantRet, wantOut := behaviour(t, prog.src)
		f, err := minic.Parse(prog.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range srcobf.Transforms() {
			for seed := int64(1); seed <= 4; seed++ {
				clone, err := minic.Parse(minic.Print(f)) // fresh AST
				if err != nil {
					t.Fatal(err)
				}
				tr.Apply(clone, rand.New(rand.NewSource(seed)))
				out := minic.Print(clone)
				gotRet, gotOut := behaviour(t, out)
				if gotRet != wantRet || gotOut != wantOut {
					t.Fatalf("%s/%s seed %d changed behaviour: ret %d->%d\nsource:\n%s",
						prog.name, tr.Name, seed, wantRet, gotRet, out)
				}
			}
		}
	}
}

// TestStrategiesPreserveSemantics runs all four strategies end to end.
func TestStrategiesPreserveSemantics(t *testing.T) {
	for _, prog := range programs {
		wantRet, wantOut := behaviour(t, prog.src)
		for _, strat := range srcobf.StrategyNames() {
			out, err := srcobf.TransformSource(prog.src, strat, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatalf("%s/%s: %v", prog.name, strat, err)
			}
			gotRet, gotOut := behaviour(t, out)
			if gotRet != wantRet || gotOut != wantOut {
				t.Fatalf("%s/%s changed behaviour: ret %d->%d\nsource:\n%s",
					prog.name, strat, wantRet, gotRet, out)
			}
		}
	}
}

// TestStrategiesMoveHistogram: each strategy should usually move the opcode
// histogram (that is its objective).
func TestStrategiesMoveHistogram(t *testing.T) {
	src := programs[0].src
	m0, _ := minic.CompileSource(src, "t")
	h0 := embed.Histogram(m0)
	moved := 0
	for _, strat := range srcobf.StrategyNames() {
		out, err := srcobf.TransformSource(src, strat, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		m1, err := minic.CompileSource(out, "t")
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if embed.Distance(h0, embed.Histogram(m1)) > 0 {
			moved++
		}
	}
	if moved < 3 {
		t.Fatalf("only %d/4 strategies moved the histogram", moved)
	}
}

// TestSourceEvasionDissolvesUnderO3 reproduces the paper's key observation:
// after -O3 normalization, source-level obfuscation mostly disappears. We
// require the O3 histogram distance to be below the O0 distance.
func TestSourceEvasionDissolvesUnderO3(t *testing.T) {
	src := programs[0].src
	out, err := srcobf.TransformSource(src, "rs", rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	distAt := func(level passes.Level) float64 {
		m0, _ := minic.CompileSource(src, "a")
		m1, _ := minic.CompileSource(out, "b")
		if err := passes.Optimize(m0, level); err != nil {
			t.Fatal(err)
		}
		if err := passes.Optimize(m1, level); err != nil {
			t.Fatal(err)
		}
		return embed.Distance(embed.Histogram(m0), embed.Histogram(m1))
	}
	d0 := distAt(passes.O0)
	d3 := distAt(passes.O3)
	if d0 == 0 {
		t.Skip("rs produced an IR-identical program at O0")
	}
	if d3 >= d0 {
		t.Fatalf("O3 did not shrink the histogram distance: O0=%v O3=%v", d0, d3)
	}
}

func TestTransformNamesCount(t *testing.T) {
	names := srcobf.TransformNames()
	if len(names) != 15 {
		t.Fatalf("have %d transforms, the paper's evaders compose 15", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate transform %q", n)
		}
		seen[n] = true
	}
}

func TestUnknownStrategy(t *testing.T) {
	if _, err := srcobf.TransformSource("int main() { return 0; }", "rl", rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
}

// TestTransformedSourceStillPrintsAndReparses guards the printer contract.
func TestTransformedSourceStillPrintsAndReparses(t *testing.T) {
	for _, prog := range programs {
		out, err := srcobf.TransformSource(prog.src, "rs", rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := minic.Parse(out); err != nil {
			t.Fatalf("%s: transformed source does not reparse: %v\n%s", prog.name, err, out)
		}
	}
}

// TestTransformsHandleStructs: the AST walkers must traverse struct
// declarations and member accesses without breaking them.
func TestTransformsHandleStructs(t *testing.T) {
	src := `
	struct Acc { int lo; int hi; };
	void add(struct Acc *a, int v) {
		a->lo += v;
		if (a->lo >= 100) { a->hi++; a->lo -= 100; }
	}
	int main() {
		struct Acc a;
		a.lo = 0;
		a.hi = 0;
		for (int i = 0; i < 30; i++) add(&a, i);
		return a.hi * 1000 + a.lo;
	}`
	wantRet, wantOut := behaviour(t, src)
	for _, strat := range srcobf.StrategyNames() {
		out, err := srcobf.TransformSource(src, strat, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		gotRet, gotOut := behaviour(t, out)
		if gotRet != wantRet || gotOut != wantOut {
			t.Fatalf("%s changed struct program behaviour: %d -> %d\n%s", strat, wantRet, gotRet, out)
		}
	}
}

// TestTransformFileDeterministic: the one-shot entry point is a pure
// function of (source, strategy, seed) — same seed, byte-identical winner.
func TestTransformFileDeterministic(t *testing.T) {
	src := programs[1].src
	for _, strat := range srcobf.StrategyNames() {
		a, err := srcobf.TransformSource(src, strat, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		b, err := srcobf.TransformSource(src, strat, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if a != b {
			t.Fatalf("%s: same seed produced different winners:\n--- first\n%s\n--- second\n%s", strat, a, b)
		}
	}
}

// TestPopulationDeterministicAcrossWorkers: evolving a batch of populations
// concurrently must give byte-identical winners at any worker count, as long
// as per-population seeds are pre-derived sequentially from the master RNG and
// the populations fan out through core.ForEach — the same discipline the
// arena's generation loop uses.
func TestPopulationDeterministicAcrossWorkers(t *testing.T) {
	f, err := minic.Parse(programs[3].src)
	if err != nil {
		t.Fatal(err)
	}
	const nPops = 4
	for _, strat := range srcobf.StrategyNames() {
		runAt := func(workers int) []string {
			master := rand.New(rand.NewSource(42))
			seeds := make([]int64, nPops)
			for i := range seeds {
				seeds[i] = master.Int63()
			}
			outs := make([]string, nPops)
			core.ForEach(workers, nPops, func(i int) {
				rng := rand.New(rand.NewSource(seeds[i]))
				p, err := srcobf.NewPopulation(f, strat, 3, nil, rng)
				if err != nil {
					t.Error(err)
					return
				}
				for g := 0; g < 2; g++ {
					p.Evolve(rng)
				}
				outs[i] = minic.Print(p.Best().File)
			})
			return outs
		}
		base := runAt(1)
		for _, w := range []int{4, 8} {
			got := runAt(w)
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("%s: population %d winner differs between 1 and %d workers", strat, i, w)
				}
			}
		}
	}
}
