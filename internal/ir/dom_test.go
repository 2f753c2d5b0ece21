package ir_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obfus"
	"repro/internal/passes"
	"repro/internal/progen"
)

// corpusModule is one program of the dominator-tree corpus in one form.
type corpusModule struct {
	name string
	m    *ir.Module
}

// domCorpus compiles a fixed set of generated programs at O0, at O3 and
// after ollvm (seeded by the program's seed). It feeds the dominator-tree
// golden file and the Verify/NewDomTree benchmarks.
func domCorpus(tb testing.TB) []corpusModule {
	tb.Helper()
	var out []corpusModule
	for seed := int64(1); seed <= 8; seed++ {
		src := progen.GenerateSeed(seed)
		for _, form := range []string{"O0", "O3", "ollvm"} {
			m, err := minic.CompileSource(src, "corpus")
			if err != nil {
				tb.Fatalf("seed %d: %v", seed, err)
			}
			switch form {
			case "O3":
				err = passes.Optimize(m, passes.O3)
			case "ollvm":
				err = obfus.Apply(m, "ollvm", rand.New(rand.NewSource(seed)))
			}
			if err != nil {
				tb.Fatalf("seed %d %s: %v", seed, form, err)
			}
			out = append(out, corpusModule{fmt.Sprintf("seed %d %s", seed, form), m})
		}
	}
	return out
}

// dumpDomTree writes every fact the dominator tree exposes about f: per
// block its RPO index, idom, children in order, how many blocks dominate it
// and its dominance frontier; then the natural loops. Blocks are named by
// their index in f.Blocks and their label, since labels may repeat.
func dumpDomTree(sb *strings.Builder, f *ir.Function) {
	dt := ir.NewDomTree(f)
	idx := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b] = i
	}
	name := func(b *ir.Block) string {
		if b == nil {
			return "-"
		}
		return fmt.Sprintf("%d:%s", idx[b], b.Label())
	}
	names := func(bs []*ir.Block) string {
		s := make([]string, len(bs))
		for i, b := range bs {
			s[i] = name(b)
		}
		return "[" + strings.Join(s, " ") + "]"
	}
	df := dt.Frontiers()
	for _, b := range f.Blocks {
		ndom := 0
		for _, a := range f.Blocks {
			if dt.Dominates(a, b) {
				ndom++
			}
		}
		rpo, ok := dt.Order[b]
		if !ok {
			fmt.Fprintf(sb, "  %s unreachable dom=%d\n", name(b), ndom)
			continue
		}
		fmt.Fprintf(sb, "  %s rpo=%d idom=%s children=%s dom=%d df=%s\n",
			name(b), rpo, name(dt.IDom[b]), names(dt.Children[b]), ndom, names(df[b]))
	}
	for _, l := range dt.NaturalLoops() {
		fmt.Fprintf(sb, "  loop header=%s latches=%s blocks=%d\n",
			name(l.Header), names(l.Latches), len(l.Blocks))
	}
}

// TestDomTreeGolden pins the dominator trees of the corpus to
// testdata/domtree.txt, recorded from the map-based construction.
func TestDomTreeGolden(t *testing.T) {
	var sb strings.Builder
	for _, cm := range domCorpus(t) {
		for _, f := range cm.m.Functions {
			if f.IsDecl() {
				continue
			}
			fmt.Fprintf(&sb, "%s @%s\n", cm.name, f.Name)
			dumpDomTree(&sb, f)
		}
	}
	want, err := os.ReadFile("testdata/domtree.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("domtree.txt line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("domtree.txt: got %d lines, want %d", len(gl), len(wl))
}

// TestDomTreeUnreachable pins how the tree treats a block no path from the
// entry reaches: it has no RPO index, idom or children, and it dominates
// and is dominated by itself alone.
func TestDomTreeUnreachable(t *testing.T) {
	m, err := ir.ParseModule(`define i64 @f() {
entry:
  br label %b
dead:
  br label %b
b:
  ret i64 0
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Func("f")
	entry, dead, b := f.Blocks[0], f.Blocks[1], f.Blocks[2]
	dt := ir.NewDomTree(f)
	if _, ok := dt.Order[dead]; ok {
		t.Error("unreachable block has an RPO index")
	}
	if _, ok := dt.IDom[dead]; ok {
		t.Error("unreachable block has an idom entry")
	}
	if len(dt.RPO) != 2 || len(dt.Order) != 2 || len(dt.IDom) != 2 || len(dt.Children) != 1 {
		t.Errorf("sizes: rpo %d order %d idom %d children %d, want 2 2 2 1",
			len(dt.RPO), len(dt.Order), len(dt.IDom), len(dt.Children))
	}
	for _, c := range []struct {
		a, b *ir.Block
		want bool
	}{
		{dead, dead, true},
		{dead, b, false},
		{entry, dead, false},
		{b, dead, false},
		{entry, b, true},
		{nil, b, false},
		{entry, nil, false},
	} {
		if got := dt.Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if dt.IDom[b] != entry || dt.IDom[entry] != nil {
		t.Errorf("idoms: b %v entry %v", dt.IDom[b], dt.IDom[entry])
	}
}
