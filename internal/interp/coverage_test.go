package interp_test

import (
	"math/rand"
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

// directlyExercised pins the opcodes that opcodes_test.go builds and runs by
// hand because neither the front end nor any transform emits them. Keep this
// list in sync with that file: every entry must correspond to a test there.
var directlyExercised = []ir.Opcode{
	ir.OpUDiv, ir.OpURem, ir.OpLShr, // TestUnsignedOps
	ir.OpZExt,   // TestZExtNarrowTypes
	ir.OpUIToFP, // TestUIToFPAndFPToUI
	ir.OpFRem,   // TestFRemAndFNeg
	ir.OpFreeze, // TestSelectAndFreeze
	ir.OpVAArg,  // TestUnimplementedOpcodeTraps
}

// sweepOps is the remainder of the opcode space: conversions the interpreter
// handles but nothing emits, plus the exotic tail (vectors, atomics,
// exception handling) that exists so the histogram embedding matches the
// paper's 63 dimensions. TestOpcodeCoverage itself drives each one through
// the interpreter, accepting either a value or a clean trap — never a crash.
var sweepOps = []ir.Opcode{
	ir.OpUnreachable,
	ir.OpFPTrunc, ir.OpFPExt, ir.OpFPToUI,
	ir.OpPtrToInt, ir.OpIntToPtr, ir.OpAddrSpaceCast,
	ir.OpExtractValue, ir.OpInsertValue,
	ir.OpExtractElement, ir.OpInsertElement, ir.OpShuffleVector,
	ir.OpFence, ir.OpCmpXchg, ir.OpAtomicRMW,
	ir.OpIndirectBr, ir.OpInvoke, ir.OpCallBr, ir.OpResume,
	ir.OpLandingPad, ir.OpCatchPad, ir.OpCleanupPad,
}

func markOpcodes(m *ir.Module, cover []bool) {
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) { cover[in.Op] = true })
	}
}

// sweepModule wraps a single instruction of the given opcode into a runnable
// main, with argument types chosen so evaluation reaches the opcode itself.
func sweepModule(op ir.Opcode) *ir.Module {
	m := ir.NewModule("sweep")
	f := m.Add(ir.NewFunction("main", ir.I64, nil, nil))
	b := f.NewBlock("entry")
	in := &ir.Instr{Op: op, Ty: ir.I64}
	switch {
	case op == ir.OpUnreachable:
		// A terminator on its own: executing it must trap.
	case op == ir.OpFPTrunc || op == ir.OpFPExt || op == ir.OpFPToUI:
		in.Args = []ir.Value{ir.ConstFloat(1.5)}
		if op != ir.OpFPToUI {
			in.Ty = ir.F64
		}
	case op == ir.OpFRem:
		in.Args = []ir.Value{ir.ConstFloat(7.5), ir.ConstFloat(2.0)}
		in.Ty = ir.F64
	case op == ir.OpUIToFP:
		in.Args = []ir.Value{ir.ConstInt(ir.I64, 8)}
		in.Ty = ir.F64
	case op == ir.OpUDiv || op == ir.OpURem || op == ir.OpLShr:
		in.Args = []ir.Value{ir.ConstInt(ir.I64, 8), ir.ConstInt(ir.I64, 2)}
	case op == ir.OpZExt || op == ir.OpFreeze || op == ir.OpVAArg:
		in.Args = []ir.Value{ir.ConstInt(ir.I64, 8)}
	default:
		in.Args = []ir.Value{ir.ConstInt(ir.I64, 8), ir.ConstInt(ir.I64, 0)}
	}
	b.Append(in)
	if op != ir.OpUnreachable {
		ir.NewBuilder(b).Ret(ir.ConstInt(ir.I64, 0))
	}
	return m
}

// markVM compiles m to bytecode and records every opcode the compiler
// lowered; the corpus modules thus prove the VM's compile path handles the
// opcodes real programs produce (execution parity over the same corpus is
// TestVMMatchesInterpCorpus in internal/vm).
func markVM(t *testing.T, m *ir.Module, cover []bool) {
	t.Helper()
	if _, err := vm.Compile(m); err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) { cover[in.Op] = true })
	}
}

// markThaw round-trips m through the flat view (Flatten -> Thaw ->
// Flatten), requires byte-identical tables and an identical module print,
// then records every opcode that survived — proving each opcode the corpus
// produces round-trips through the thaw path losslessly.
func markThaw(t *testing.T, m *ir.Module, cover []bool) {
	t.Helper()
	want := m.String()
	fl := ir.Flatten(m)
	th := ir.Thaw(fl)
	if got := th.String(); got != want {
		t.Fatalf("thawed module prints differently:\n--- original ---\n%s\n--- thawed ---\n%s", want, got)
	}
	if d := ir.FlatDiff(fl, ir.Flatten(th)); d != "" {
		t.Fatalf("thawed module re-flattens differently: %s", d)
	}
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) { cover[in.Op] = true })
	}
}

// TestOpcodeCoverage asserts that every one of the 63 IR opcodes is exercised
// by the interpreter test suite: the differential-fuzzing corpus (generated
// programs at O0, after -O3, and after the stacked obfuscator) covers the
// opcodes real programs produce, opcodes_test.go covers the hand-built ones,
// and a direct sweep here drives the never-emitted tail. A new opcode — or a
// generator regression that stops emitting one — fails with the missing list.
//
// The same accounting runs against the bytecode VM: every corpus module is
// lowered through vm.Compile, and the tail opcodes the corpus never emits
// are driven through the vm engine directly, so both engines are proven to
// stay in control on all 63 opcodes.
//
// A third ledger runs the flat IR round-trip: every corpus module and every
// sweep module goes through Flatten -> Thaw -> Flatten, which must be
// byte-identical and print-identical — so all 63 opcodes are proven to
// survive the thaw path too.
func TestOpcodeCoverage(t *testing.T) {
	cover := make([]bool, ir.NumOpcodes)
	vmCover := make([]bool, ir.NumOpcodes)
	thawCover := make([]bool, ir.NumOpcodes)

	for seed := int64(0); seed < 40; seed++ {
		src := progen.GenerateSeed(seed)
		m, err := minic.CompileSource(src, "cov")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		markOpcodes(m, cover)
		markVM(t, m, vmCover)
		markThaw(t, m, thawCover)
		m2, _ := minic.CompileSource(src, "cov")
		if err := passes.Optimize(m2, passes.O3); err != nil {
			t.Fatalf("seed %d O3: %v", seed, err)
		}
		markOpcodes(m2, cover)
		markVM(t, m2, vmCover)
		markThaw(t, m2, thawCover)
		m3, _ := minic.CompileSource(src, "cov")
		if err := obfus.Apply(m3, "ollvm", rand.New(rand.NewSource(seed))); err != nil {
			t.Fatalf("seed %d ollvm: %v", seed, err)
		}
		markOpcodes(m3, cover)
		markVM(t, m3, vmCover)
		markThaw(t, m3, thawCover)
	}

	for _, op := range directlyExercised {
		cover[op] = true
	}

	// sweepEngines executes one sweep module on the interpreter and the VM,
	// accepting a value or a clean trap from either — never a crash.
	sweepEngines := func(op ir.Opcode) {
		m := sweepModule(op)
		for _, eng := range []interp.Engine{interp.Tree, vm.Engine{}} {
			if _, err := eng.Run(m, interp.Options{}); err != nil &&
				!strings.Contains(err.Error(), "unimplemented opcode") &&
				!strings.Contains(err.Error(), "unreachable") {
				t.Errorf("%s on %s: unexpected trap class: %v", op, eng.Name(), err)
			}
		}
	}

	for _, op := range sweepOps {
		if cover[op] {
			t.Errorf("%s is in sweepOps but the corpus already emits it; move it out", op)
		}
		sweepEngines(op)
		markThaw(t, sweepModule(op), thawCover)
		cover[op] = true
		vmCover[op] = true
	}

	// The hand-exercised opcodes go through the interpreter in
	// opcodes_test.go via Machine.Call; the VM runs whole modules, so drive
	// each through a main-wrapped sweep here to cover its bytecode path. The
	// same sweep modules feed the thaw round-trip ledger, so the tail
	// opcodes the corpus never emits are proven on that path too.
	for _, op := range directlyExercised {
		markThaw(t, sweepModule(op), thawCover)
		if vmCover[op] {
			continue
		}
		sweepEngines(op)
		vmCover[op] = true
	}

	report := func(engine string, cov []bool) {
		var missing []string
		for op := ir.Opcode(0); op < ir.NumOpcodes; op++ {
			if !cov[op] {
				missing = append(missing, op.String())
			}
		}
		if len(missing) > 0 {
			t.Fatalf("%s: %d of %d opcodes not exercised by the corpus, opcodes_test.go or the sweep: %s",
				engine, len(missing), ir.NumOpcodes, strings.Join(missing, ", "))
		}
	}
	report("tree", cover)
	report("vm", vmCover)
	report("thaw", thawCover)
}
