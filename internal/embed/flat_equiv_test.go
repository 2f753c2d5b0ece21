package embed_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obfus"
	"repro/internal/passes"
	"repro/internal/progen"
)

// VecFlat/GraphFlat must produce byte-identical output to the pointer
// builders for every embedding: identical node order, edge order, edge
// types and bit-for-bit identical feature values. For histogram and
// cfg_compact this compares the native flat builders against their pointer
// siblings; for the other seven, whose flat entry point thaws the view and
// runs the pointer builder, it checks that Flatten followed by Thaw keeps
// everything the embedding sees. These tests pin that over hand-written
// samples, shrunk fuzz crashers, a 200-program generated corpus, and
// optimized/obfuscated variants of a corpus subset.

func vecsIdentical(a, b embed.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func graphsIdentical(a, b *embed.Graph) bool {
	if len(a.NodeFeats) != len(b.NodeFeats) ||
		len(a.Edges) != len(b.Edges) || len(a.EdgeTypes) != len(b.EdgeTypes) {
		return false
	}
	for i := range a.NodeFeats {
		if !vecsIdentical(a.NodeFeats[i], b.NodeFeats[i]) {
			return false
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] || a.EdgeTypes[i] != b.EdgeTypes[i] {
			return false
		}
	}
	return true
}

// checkFlatEquiv runs every registered embedding both ways on m.
func checkFlatEquiv(t *testing.T, label string, m *ir.Module) {
	t.Helper()
	fl := ir.Flatten(m)
	for _, name := range embed.Names() {
		e, err := embed.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		switch e.Kind {
		case embed.VectorKind:
			ref, got := e.Vec(m), e.VecFlat(fl)
			if !vecsIdentical(ref, got) {
				t.Errorf("%s: %s: flat vector differs from pointer vector", label, name)
			}
		case embed.GraphKind:
			ref, got := e.Graph(m), e.GraphFlat(fl)
			if !graphsIdentical(ref, got) {
				t.Errorf("%s: %s: flat graph differs from pointer graph (nodes %d/%d, edges %d/%d)",
					label, name, ref.NumNodes(), got.NumNodes(), len(ref.Edges), len(got.Edges))
			}
		}
	}
}

func TestFlatEquivalenceSamples(t *testing.T) {
	samples := map[string]string{
		"sample": sample,
		"loops": `int main() { int s=0; for (int i=0;i<9;i++) { for (int j=0;j<9;j++) s+=i*j; }
			while (s > 100) s /= 2; return s; }`,
		"floats_globals": `
			float g = 2.5;
			int arr[8];
			float fma(float a, float b, float c) { return a * b + c; }
			int main() { arr[3] = 7; g = fma(g, 3.0, 0.5); return arr[3] + (int)g; }`,
		"switch_calls": `
			int pick(int x) { switch (x) { case 0: return 10; case 1: return 20; case 7: return 70; default: return -1; } }
			int main() { int s = 0; for (int i = 0; i < 9; i++) s += pick(i); return s; }`,
		"structs_ptrs": `
			struct P { int x; int y; };
			int main() { struct P p; p.x = 3; p.y = 4; int *q = &p.x; *q = 5; return p.x * p.y; }`,
	}
	for label, src := range samples {
		checkFlatEquiv(t, label, mod(t, src))
	}
}

func TestFlatEquivalenceCrashers(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "crashers", "*"))
	n := 0
	for _, f := range files {
		if filepath.Ext(f) == ".md" {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := minic.CompileSource(string(src), filepath.Base(f))
		if err != nil {
			continue // crashers may pin frontend errors
		}
		checkFlatEquiv(t, filepath.Base(f), m)
		n++
	}
	t.Logf("checked %d crasher programs", n)
}

func TestFlatEquivalenceProgenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("200-program corpus is not for -short")
	}
	for seed := int64(0); seed < 200; seed++ {
		src := progen.GenerateSeed(seed)
		m, err := minic.CompileSource(src, "gen")
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		checkFlatEquiv(t, fmt.Sprintf("progen seed %d", seed), m)
	}
}

// A subset of the corpus additionally goes through the optimizer and the
// obfuscators, exercising flattening of transformed (non-frontend-shaped)
// IR: merged blocks, phis from mem2reg, flattened dispatch loops, opaque
// predicates.
func TestFlatEquivalenceTransformed(t *testing.T) {
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
			checkFlatEquiv(t, fmt.Sprintf("progen seed %d %s", seed, level), m)
		}
		for _, ob := range obfus.Names() {
			m, err := minic.CompileSource(src, "gen")
			if err != nil {
				t.Fatalf("seed %d: compile: %v", seed, err)
			}
			if err := obfus.Apply(m, ob, rand.New(rand.NewSource(seed))); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, ob, err)
			}
			checkFlatEquiv(t, fmt.Sprintf("progen seed %d %s", seed, ob), m)
		}
	}
}
