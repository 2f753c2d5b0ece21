package difftest

import (
	"math/rand"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/progen"
	"repro/internal/vm"
)

// FuzzPasses drives every individual pass and the O1-O3 pipelines over
// generator seeds. Each execution compiles the program once and hands every
// transform a private copy, alternating between the two ways the repo makes
// one — a deep pointer-graph clone and a thaw of the flat view — so both
// copy paths face the full oracle equivalence check on every seed. The seed
// corpus under testdata/fuzz runs on every plain `go test`;
// `go test -fuzz FuzzPasses ./internal/difftest` explores new seeds
// indefinitely.
func FuzzPasses(f *testing.F) {
	for _, s := range []int64{0, 1, 7, 42, 5069, 90017} {
		f.Add(s)
	}
	trs, err := Transforms("smoke")
	if err != nil {
		f.Fatal(err)
	}
	var pp []Transform
	for _, tr := range trs {
		if tr.Group == "pass" || tr.Group == "pipeline" {
			pp = append(pp, tr)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := genFuzzProgram(seed)
		oracle, err := Oracle(src)
		if err != nil {
			t.Fatalf("oracle: %v\nsource:\n%s", err, src)
		}
		master, err := minic.CompileSource(src, "prog")
		if err != nil {
			t.Fatalf("compile: %v\nsource:\n%s", err, src)
		}
		fl := ir.Flatten(master)
		for i, tr := range pp {
			var m *ir.Module
			copyPath := "clone"
			if i%2 == 0 {
				m = master.Clone()
			} else {
				m, copyPath = ir.Thaw(fl), "thaw"
			}
			rng := rand.New(rand.NewSource(cellSeed(seed, tr.Name)))
			if err := tr.ApplyMod(m, rng); err != nil {
				t.Fatalf("transform %s (%s copy): %v\nsource:\n%s", tr.Name, copyPath, err, src)
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("transform %s (%s copy): verify: %v\nsource:\n%s", tr.Name, copyPath, err, src)
			}
			got := Observe(m, budgetFor(oracle.Steps), interp.Tree)
			if v, detail := Equivalent(oracle, got); v.Failure() {
				t.Fatalf("transform %s (%s copy): %s: %s\nsource:\n%s", tr.Name, copyPath, v, detail, src)
			}
		}
	})
}

// FuzzThaw is the round-trip obligation as a fuzz target: for any generated
// program, Flatten then Thaw must yield a verifying module that prints
// exactly like the original and re-flattens to byte-identical tables.
func FuzzThaw(f *testing.F) {
	for _, s := range []int64{0, 2, 19, 101, 74093} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := genFuzzProgram(seed)
		m, err := minic.CompileSource(src, "prog")
		if err != nil {
			t.Fatalf("compile: %v\nsource:\n%s", err, src)
		}
		want := m.String()
		fl := ir.Flatten(m)
		th := ir.Thaw(fl)
		if err := th.Verify(); err != nil {
			t.Fatalf("thawed module fails verify: %v\nsource:\n%s", err, src)
		}
		if got := th.String(); got != want {
			t.Fatalf("thawed module prints differently:\n--- original ---\n%s\n--- thawed ---\n%s\nsource:\n%s", want, got, src)
		}
		if d := ir.FlatDiff(fl, ir.Flatten(th)); d != "" {
			t.Fatalf("thawed module re-flattens differently: %s\nsource:\n%s", d, src)
		}
	})
}

// FuzzObfus drives the four obfuscators the same way.
func FuzzObfus(f *testing.F) {
	for _, s := range []int64{0, 3, 11, 77, 90001} {
		f.Add(s)
	}
	trs, err := Transforms("smoke")
	if err != nil {
		f.Fatal(err)
	}
	var ob []Transform
	for _, tr := range trs {
		if tr.Group == "obfus" {
			ob = append(ob, tr)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := genFuzzProgram(seed)
		oracle, err := Oracle(src)
		if err != nil {
			t.Fatalf("oracle: %v\nsource:\n%s", err, src)
		}
		for _, tr := range ob {
			rng := rand.New(rand.NewSource(cellSeed(seed, tr.Name)))
			if v, detail := CheckOne(src, tr, rng, oracle, vm.Engine{}); v.Failure() {
				t.Fatalf("transform %s: %s: %s\nsource:\n%s", tr.Name, v, detail, src)
			}
		}
	})
}

// genFuzzProgram maps a fuzz seed to a program using the smoke shape, so
// one fuzz execution stays cheap enough for high throughput.
func genFuzzProgram(seed int64) string {
	return progen.GenerateCfg(rand.New(rand.NewSource(seed)), SmokeGen())
}
