package ir_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obfus"
	"repro/internal/passes"
)

// thawMaster compiles the shared clone stress sample and flattens it.
func thawMaster(t *testing.T) (*ir.Module, *ir.Flat) {
	t.Helper()
	master, err := minic.CompileSource(cloneSample, "clone")
	if err != nil {
		t.Fatal(err)
	}
	return master, ir.Flatten(master)
}

// TestThawRoundTrip is the core proof obligation of the thaw path: a thawed
// module must verify, print byte-identically to the master, and re-flatten
// to byte-identical flat tables.
func TestThawRoundTrip(t *testing.T) {
	master, fl := thawMaster(t)
	before := master.String()

	th := ir.Thaw(fl)
	if err := th.Verify(); err != nil {
		t.Fatalf("thawed module fails verification: %v", err)
	}
	if got := th.String(); got != before {
		t.Fatalf("thawed module prints differently from master:\n--- master ---\n%s\n--- thawed ---\n%s", before, got)
	}
	if d := ir.FlatDiff(fl, ir.Flatten(th)); d != "" {
		t.Fatalf("Flatten(Thaw(fl)) diverges from fl: %s", d)
	}

	// The optimized shape exercises phis, merged blocks and renumbered IDs.
	opt := master.Clone()
	if err := passes.Optimize(opt, passes.O3); err != nil {
		t.Fatal(err)
	}
	ofl := ir.Flatten(opt)
	oth := ir.Thaw(ofl)
	if err := oth.Verify(); err != nil {
		t.Fatalf("thawed optimized module fails verification: %v", err)
	}
	if got, want := oth.String(), opt.String(); got != want {
		t.Fatalf("thawed optimized module prints differently:\n--- master ---\n%s\n--- thawed ---\n%s", want, got)
	}
	if d := ir.FlatDiff(ofl, ir.Flatten(oth)); d != "" {
		t.Fatalf("optimized round-trip diverges: %s", d)
	}
}

// TestThawIsReparseable pushes the thawed module through the parser's
// normalization, like TestCloneIsReparseable does for clones.
func TestThawIsReparseable(t *testing.T) {
	master, fl := thawMaster(t)
	mNorm := roundTrip(t, master).String()
	tNorm := roundTrip(t, ir.Thaw(fl)).String()
	if mNorm != tNorm {
		t.Fatalf("normalized thaw diverged from normalized master:\n--- master ---\n%s\n--- thawed ---\n%s", mNorm, tNorm)
	}
}

// TestThawMutationIsolation hammers a thawed copy with every mutating
// consumer and checks that neither the master module nor the flat view it
// was thawed from moved — the same invariant TestCloneRoundTrip pins for
// clones.
func TestThawMutationIsolation(t *testing.T) {
	master, fl := thawMaster(t)
	before := master.String()

	th := ir.Thaw(fl)
	if err := passes.Optimize(th, passes.O3); err != nil {
		t.Fatal(err)
	}
	if err := obfus.Apply(th, "ollvm", rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if err := th.Verify(); err != nil {
		t.Fatalf("mutated thaw fails verification: %v", err)
	}
	if got := master.String(); got != before {
		t.Fatalf("mutating a thawed copy changed the master:\n--- before ---\n%s\n--- after ---\n%s", before, got)
	}
	if d := ir.FlatDiff(fl, ir.Flatten(master)); d != "" {
		t.Fatalf("mutating a thawed copy changed the flat view: %s", d)
	}
	// A fresh thaw of the untouched flat still matches the master.
	if got := ir.Thaw(fl).String(); got != before {
		t.Fatal("re-thaw after mutation of a sibling thaw diverged from the master")
	}
}

// TestThawSharingInvariants pins what is shared with the master (immutable
// types and signatures) versus rebuilt (functions, blocks, instructions,
// globals), and that constants materialize one object per operand use so
// pointer-identity pass rules fire exactly as they do on a clone.
func TestThawSharingInvariants(t *testing.T) {
	master, fl := thawMaster(t)
	th := ir.Thaw(fl)

	for i, mf := range master.Functions {
		tf := th.Functions[i]
		if tf == mf {
			t.Fatalf("function %q shared with master", mf.Name)
		}
		if tf.Sig != mf.Sig {
			t.Fatalf("function %q signature not shared with master", mf.Name)
		}
		for j, mb := range mf.Blocks {
			if tf.Blocks[j] == mb {
				t.Fatalf("block %s of %q shared with master", mb.Label(), mf.Name)
			}
			for k, mi := range mb.Instrs {
				if tf.Blocks[j].Instrs[k] == mi {
					t.Fatalf("instr %s of %q shared with master", mi.Ref(), mf.Name)
				}
			}
		}
	}
	for i, mg := range master.Globals {
		tg := th.Globals[i]
		if tg == mg {
			t.Fatalf("global %q shared with master", mg.Name)
		}
		if tg.Elem != mg.Elem {
			t.Fatalf("global %q element type not shared", mg.Name)
		}
	}

	// No *Const object may appear in two operand slots: the front end
	// allocates per use, and instcombine folds on operand pointer equality.
	seen := make(map[*ir.Const]string)
	for _, f := range th.Functions {
		f.ForEachInstr(func(in *ir.Instr) {
			for j, a := range in.Args {
				c, ok := a.(*ir.Const)
				if !ok {
					continue
				}
				at := fmt.Sprintf("%s arg %d", in.Ref(), j)
				if prev, dup := seen[c]; dup {
					t.Fatalf("constant object shared between %s and %s", prev, at)
				}
				seen[c] = at
			}
		})
	}
}

// TestThawArenaSpans checks the len==cap sub-slice discipline: appending to
// any instruction's Args, Blocks or SwitchVals must reallocate out of the
// arena instead of stomping the next instruction's span.
func TestThawArenaSpans(t *testing.T) {
	_, fl := thawMaster(t)
	th := ir.Thaw(fl)
	ref := ir.Thaw(fl)

	var thIns, refIns []*ir.Instr
	for _, f := range th.Functions {
		f.ForEachInstr(func(in *ir.Instr) { thIns = append(thIns, in) })
	}
	for _, f := range ref.Functions {
		f.ForEachInstr(func(in *ir.Instr) { refIns = append(refIns, in) })
	}
	if len(thIns) != len(refIns) {
		t.Fatalf("thaw size mismatch: %d vs %d", len(thIns), len(refIns))
	}

	// Append to every span, in order, before checking anything: if spans
	// leaked capacity over their neighbours, earlier appends would overwrite
	// later instructions' first slots.
	junkBlock := &ir.Block{Name: "junk"}
	for _, in := range thIns {
		in.Args = append(in.Args, ir.ConstBool(true))
		in.Blocks = append(in.Blocks, junkBlock)
		in.SwitchVals = append(in.SwitchVals, -777)
	}
	for i, in := range thIns {
		want := refIns[i]
		if len(in.Args) != len(want.Args)+1 || len(in.Blocks) != len(want.Blocks)+1 ||
			len(in.SwitchVals) != len(want.SwitchVals)+1 {
			t.Fatalf("instr %d: appended lengths off", i)
		}
		for j, a := range want.Args {
			if in.Args[j] == nil || a == nil {
				t.Fatalf("instr %d arg %d: nil operand", i, j)
			}
			if in.Args[j].Ref() != a.Ref() {
				t.Fatalf("instr %d arg %d stomped: %q vs %q", i, j, in.Args[j].Ref(), a.Ref())
			}
		}
		for j, b := range want.Blocks {
			if in.Blocks[j].Label() != b.Label() {
				t.Fatalf("instr %d block %d stomped: %q vs %q", i, j, in.Blocks[j].Label(), b.Label())
			}
		}
		for j, v := range want.SwitchVals {
			if in.SwitchVals[j] != v {
				t.Fatalf("instr %d switch val %d stomped", i, j)
			}
		}
	}

	// Same discipline for block instruction lists and function block lists.
	th2 := ir.Thaw(fl)
	for _, f := range th2.Functions {
		for _, b := range f.Blocks {
			b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpUnreachable})
		}
		f.Blocks = append(f.Blocks, junkBlock)
	}
	for fi, f := range th2.Functions {
		want := ref.Functions[fi]
		if len(f.Blocks) != len(want.Blocks)+1 {
			t.Fatalf("function %q block list stomped", f.Name)
		}
		for bi, b := range want.Blocks {
			got := f.Blocks[bi]
			if got.Label() != b.Label() || len(got.Instrs) != len(b.Instrs)+1 {
				t.Fatalf("function %q block %d stomped", f.Name, bi)
			}
			for k, in := range b.Instrs {
				if got.Instrs[k].Op != in.Op {
					t.Fatalf("function %q block %d instr %d stomped", f.Name, bi, k)
				}
			}
		}
	}
}

// TestThawMatchesCloneUnderTransforms runs identical seeded transform
// pipelines over a cloned and a thawed copy and requires byte-identical
// results — the in-package smoke version of the thawed-copy-against-clone
// check in every module-level cell of difftest's campaign.
func TestThawMatchesCloneUnderTransforms(t *testing.T) {
	master, fl := thawMaster(t)
	for _, tc := range []struct {
		name  string
		apply func(*ir.Module, *rand.Rand) error
	}{
		{"O1", func(m *ir.Module, _ *rand.Rand) error { return passes.Optimize(m, passes.O1) }},
		{"O2", func(m *ir.Module, _ *rand.Rand) error { return passes.Optimize(m, passes.O2) }},
		{"O3", func(m *ir.Module, _ *rand.Rand) error { return passes.Optimize(m, passes.O3) }},
		{"bcf", func(m *ir.Module, rng *rand.Rand) error { return obfus.Apply(m, "bcf", rng) }},
		{"fla", func(m *ir.Module, rng *rand.Rand) error { return obfus.Apply(m, "fla", rng) }},
		{"sub", func(m *ir.Module, rng *rand.Rand) error { return obfus.Apply(m, "sub", rng) }},
		{"ollvm", func(m *ir.Module, rng *rand.Rand) error { return obfus.Apply(m, "ollvm", rng) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := master.Clone()
			if err := tc.apply(cl, rand.New(rand.NewSource(7))); err != nil {
				t.Fatal(err)
			}
			th := ir.Thaw(fl)
			if err := tc.apply(th, rand.New(rand.NewSource(7))); err != nil {
				t.Fatal(err)
			}
			if cl.String() != th.String() {
				t.Fatalf("clone and thaw diverge under %s:\n--- clone ---\n%s\n--- thaw ---\n%s", tc.name, cl.String(), th.String())
			}
			if d := ir.FlatDiff(ir.Flatten(cl), ir.Flatten(th)); d != "" {
				t.Fatalf("flat tables diverge under %s: %s", tc.name, d)
			}
		})
	}
}
