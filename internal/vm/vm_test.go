package vm_test

import (
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obfus"
	"repro/internal/passes"
	"repro/internal/progen"
	"repro/internal/vm"
)

// normTrap strips the engine prefix so trap messages compare exactly:
// "interp: trap: X" and "vm: trap: X" both reduce to "X". Plain errors
// (alloc failures, declaration calls) pass through untouched in both
// engines.
func normTrap(err error) string {
	if err == nil {
		return ""
	}
	msg := err.Error()
	msg = strings.TrimPrefix(msg, "interp: trap: ")
	msg = strings.TrimPrefix(msg, "vm: trap: ")
	return msg
}

// checkSame runs m under both engines and demands bit-identical behaviour:
// same Result (Ret, Output, Steps) on success, same trap message (modulo
// engine prefix) on failure.
func checkSame(t *testing.T, m *ir.Module, opts interp.Options, label string) {
	t.Helper()
	want, werr := interp.Run(m, opts)
	got, gerr := vm.Run(m, opts)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: engines disagree on trapping: interp=%v vm=%v", label, werr, gerr)
	}
	if werr != nil {
		if normTrap(werr) != normTrap(gerr) {
			t.Fatalf("%s: trap messages differ: interp=%q vm=%q", label, werr, gerr)
		}
		return
	}
	if got.Ret != want.Ret || got.Output != want.Output || got.Steps != want.Steps {
		t.Fatalf("%s: results differ:\ninterp: ret=%d steps=%d out=%q\nvm:     ret=%d steps=%d out=%q",
			label, want.Ret, want.Steps, want.Output, got.Ret, got.Steps, got.Output)
	}
}

// TestVMMatchesInterpCorpus sweeps generated programs through the front
// end, the optimizer pipelines and the obfuscators, and requires the VM to
// reproduce the interpreter bit-for-bit on every module — including the
// exact step count, which the budget game and Figure 13 depend on.
func TestVMMatchesInterpCorpus(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 15
	}
	opts := interp.Options{MaxSteps: 16 << 20}
	for seed := int64(0); seed < seeds; seed++ {
		src := progen.GenerateSeed(seed)

		m, err := minic.CompileSource(src, "vmdiff")
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		checkSame(t, m, opts, "O0 seed "+itoa(seed))

		for _, lvl := range []passes.Level{passes.O1, passes.O2, passes.O3} {
			m2, _ := minic.CompileSource(src, "vmdiff")
			if err := passes.Optimize(m2, lvl); err != nil {
				t.Fatalf("seed %d: optimize: %v", seed, err)
			}
			checkSame(t, m2, opts, "opt seed "+itoa(seed))
		}

		for _, ob := range []string{"bcf", "fla", "sub", "ollvm"} {
			m3, _ := minic.CompileSource(src, "vmdiff")
			if err := obfus.Apply(m3, ob, rand.New(rand.NewSource(seed))); err != nil {
				t.Fatalf("seed %d: obfus %s: %v", seed, ob, err)
			}
			checkSame(t, m3, opts, ob+" seed "+itoa(seed))
		}
	}
}

// TestVMBudgetTrapParity truncates the step budget mid-program and checks
// both engines trap the budget at the same point with the same message and
// identical partial output.
func TestVMBudgetTrapParity(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		src := progen.GenerateSeed(seed)
		m, err := minic.CompileSource(src, "vmbudget")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		full, err := interp.Run(m, interp.Options{MaxSteps: 16 << 20})
		if err != nil {
			continue // trapping programs are covered by the corpus test
		}
		for _, frac := range []int64{2, 3, 7} {
			budget := full.Steps / frac
			if budget == 0 {
				continue
			}
			checkSame(t, m, interp.Options{MaxSteps: budget}, "budget seed "+itoa(seed))
		}
	}
}

// addrTrapMsg is the interpreter's out-of-arena trap message.
var addrTrapMsg = regexp.MustCompile(`^invalid memory access at -?\d+ \(size \d+, break \d+\)$`)

// TestVMAddrTrapParity drives each kind of out-of-arena access and requires
// the VM to trap with exactly the interpreter's message.
func TestVMAddrTrapParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(bd *ir.Builder)
	}{
		{"load past break", func(bd *ir.Builder) {
			p := bd.Alloca(ir.I64)
			bd.Load(bd.GEP(p, ir.ConstInt(ir.I64, 1000)))
		}},
		{"store past break", func(bd *ir.Builder) {
			p := bd.Alloca(ir.I64)
			bd.Store(ir.ConstInt(ir.I64, 7), bd.GEP(p, ir.ConstInt(ir.I64, 1)))
		}},
		{"null dereference", func(bd *ir.Builder) {
			bd.Load(ir.ConstNull(ir.PtrTo(ir.I64)))
		}},
		{"print_str past break", func(bd *ir.Builder) {
			// Eight 0xff bytes and no terminator: the string runs into the
			// break.
			p := bd.Alloca(ir.I64)
			bd.Store(ir.ConstInt(ir.I64, -1), p)
			bd.CallBuiltin("print_str", ir.Void, bd.Cast(ir.OpBitcast, p, ir.PtrTo(ir.I8)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := ir.NewModule("addr")
			f := m.Add(ir.NewFunction("main", ir.I64, nil, nil))
			bd := ir.NewBuilder(f.NewBlock("entry"))
			tc.body(bd)
			bd.Ret(ir.ConstInt(ir.I64, 0))
			if err := m.Verify(); err != nil {
				t.Fatal(err)
			}
			_, werr := interp.Run(m, interp.Options{})
			_, gerr := vm.Run(m, interp.Options{})
			want, got := normTrap(werr), normTrap(gerr)
			if !addrTrapMsg.MatchString(want) || got != want {
				t.Fatalf("traps differ: interp %v, vm %v", werr, gerr)
			}
		})
	}
}

// TestVMInputBuiltins checks the input streams are consumed identically.
func TestVMInputBuiltins(t *testing.T) {
	src := `
int main() {
  int a = input();
  int b = input();
  int c = input(); // past the end: yields 0
  print(a + 2*b + c);
  print(inputf());
  return a - b;
}`
	m, err := minic.CompileSource(src, "vminput")
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, m, interp.Options{Input: []int64{7, 9}, FloatInput: []float64{2.5}}, "inputs")
}

// TestVMBrokenEngineDiverges proves the harness would catch a real
// miscompile: BrokenEngine executes integer adds as subtracts, and the
// differential check must see it.
func TestVMBrokenEngineDiverges(t *testing.T) {
	// Straight-line on purpose: sabotaged adds in a loop counter would
	// just spin out the budget; here they flip the printed value. input()
	// blocks the front end from constant-folding the addition away.
	src := "int main() { int a = input(); print(a + 5); return 0; }"
	m, err := minic.CompileSource(src, "vmbroken")
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.Run(m, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := vm.BrokenEngine().Run(m, interp.Options{})
	if err != nil {
		t.Fatalf("broken engine should still run: %v", err)
	}
	if got.Ret == want.Ret && got.Output == want.Output {
		t.Fatalf("broken engine agreed with interp (ret=%d out=%q); sabotage ineffective", got.Ret, got.Output)
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
