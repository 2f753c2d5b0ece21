package difftest

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/progen"
	"repro/internal/vm"
)

// FuzzPasses drives every individual pass and the O1-O3 pipelines over
// generator seeds. Each cell goes through CheckOne, so every seed checks a
// thawed copy against a clone, the VM against the tree interpreter, the
// result against the oracle and the master afterwards. The seed corpus
// under testdata/fuzz runs on every plain `go test`;
// `go test -fuzz FuzzPasses ./internal/difftest` explores new seeds
// indefinitely.
func FuzzPasses(f *testing.F) {
	for _, s := range []int64{0, 1, 7, 42, 5069, 90017} {
		f.Add(s)
	}
	fuzzGroups(f, "pass", "pipeline")
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
	fuzzGroups(f, "obfus")
}

// fuzzGroups runs every smoke-set transform in the named groups through
// CheckOne on the fuzzed seed's program.
func fuzzGroups(f *testing.F, groups ...string) {
	trs, err := Transforms("smoke")
	if err != nil {
		f.Fatal(err)
	}
	var sel []Transform
	for _, tr := range trs {
		for _, g := range groups {
			if tr.Group == g {
				sel = append(sel, tr)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := genFuzzProgram(seed)
		for _, tr := range sel {
			v, detail, err := CheckOne(src, tr, cellSeed(seed, tr.Name), vm.Engine{})
			if err != nil {
				t.Fatalf("oracle: %v\nsource:\n%s", err, src)
			}
			if v.Failure() {
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
