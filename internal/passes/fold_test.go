package passes_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/vm"
)

// foldCase is one instruction over constant operands: emit builds it from
// the operands as loaded at run time.
type foldCase struct {
	name string
	op   ir.Opcode
	args []*ir.Const
	emit func(bd *ir.Builder, args []ir.Value) ir.Value
}

// foldModule builds main around c. Each operand passes through an alloca,
// so only mem2reg at O1 and above makes it a constant. The result is stored
// into a zeroed i64 slot through a pointer of the result's own type, and
// main returns the slot's bytes, so the observation is the stored
// representation of the result (an i1 true stored as -1 reads 255) and
// involves no further conversion.
func foldModule(c foldCase) *ir.Module {
	m := ir.NewModule("fold")
	f := m.Add(ir.NewFunction("main", ir.I64, nil, nil))
	bd := ir.NewBuilder(f.NewBlock("entry"))
	args := make([]ir.Value, len(c.args))
	for i, k := range c.args {
		slot := bd.Alloca(k.Ty)
		bd.Store(k, slot)
		args[i] = bd.Load(slot)
	}
	r := c.emit(bd, args)
	out := bd.Alloca(ir.I64)
	bd.Store(ir.ConstInt(ir.I64, 0), out)
	bd.Store(r, bd.Cast(ir.OpBitcast, out, ir.PtrTo(r.Type())))
	bd.Ret(bd.Load(out))
	return m
}

// observe runs m on eng and renders its return value or trap, with the
// engine's own error prefix removed.
func observe(m *ir.Module, eng interp.Engine) string {
	res, err := eng.Run(m, interp.Options{})
	if err != nil {
		msg := err.Error()
		return "trap " + msg[strings.Index(msg, ":")+1:]
	}
	return fmt.Sprint(res.Ret)
}

// foldCases is the table of TestFoldMatchesExecution: every integer binary
// opcode at i1, i8, i32 and i64 over boundary operands and shift counts,
// every icmp and fcmp predicate (NaN, zeros and infinities included), the
// float arithmetic, the numeric casts and one i1 negation compared to true.
func foldCases() []foldCase {
	var cases []foldCase
	binary := func(op ir.Opcode) func(*ir.Builder, []ir.Value) ir.Value {
		return func(bd *ir.Builder, a []ir.Value) ir.Value { return bd.Binary(op, a[0], a[1]) }
	}
	cast := func(op ir.Opcode, to *ir.Type) func(*ir.Builder, []ir.Value) ir.Value {
		return func(bd *ir.Builder, a []ir.Value) ir.Value { return bd.Cast(op, a[0], to) }
	}
	add := func(op ir.Opcode, args []*ir.Const, emit func(*ir.Builder, []ir.Value) ir.Value, name string) {
		refs := make([]string, len(args))
		for i, k := range args {
			refs[i] = k.Ty.String() + " " + k.Ref()
		}
		cases = append(cases, foldCase{name + " " + strings.Join(refs, ", "), op, args, emit})
	}

	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 63, 64}
	intTypes := []*ir.Type{ir.I1, ir.I8, ir.I32, ir.I64}
	for _, ty := range intTypes {
		for op := ir.OpAdd; op <= ir.OpXor; op++ {
			for _, a := range ints {
				for _, b := range ints {
					add(op, []*ir.Const{ir.ConstInt(ty, a), ir.ConstInt(ty, b)}, binary(op), op.String())
				}
			}
		}
		for p := ir.CmpEQ; p <= ir.CmpUGE; p++ {
			for _, a := range ints[:5] {
				for _, b := range ints[:5] {
					add(ir.OpICmp, []*ir.Const{ir.ConstInt(ty, a), ir.ConstInt(ty, b)},
						func(bd *ir.Builder, v []ir.Value) ir.Value { return bd.ICmp(p, v[0], v[1]) },
						"icmp "+p.String())
				}
			}
		}
		for _, a := range ints {
			k := []*ir.Const{ir.ConstInt(ir.I64, a)}
			add(ir.OpSIToFP, []*ir.Const{ir.ConstInt(ty, a)}, cast(ir.OpSIToFP, ir.F64), "sitofp")
			add(ir.OpUIToFP, []*ir.Const{ir.ConstInt(ty, a)}, cast(ir.OpUIToFP, ir.F64), "uitofp")
			if ty != ir.I64 {
				add(ir.OpTrunc, k, cast(ir.OpTrunc, ty), "trunc to "+ty.String())
				add(ir.OpZExt, []*ir.Const{ir.ConstInt(ty, a)}, cast(ir.OpZExt, ir.I64), "zext")
				add(ir.OpSExt, []*ir.Const{ir.ConstInt(ty, a)}, cast(ir.OpSExt, ir.I64), "sext")
			}
		}
	}

	floats := []float64{0, math.Copysign(0, -1), 1, -1.9, 255.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.Ldexp(1, 63), -math.Ldexp(1, 63), 1e300, -1e300}
	for _, a := range floats {
		for _, b := range floats {
			k := []*ir.Const{ir.ConstFloat(a), ir.ConstFloat(b)}
			for op := ir.OpFAdd; op <= ir.OpFRem; op++ {
				add(op, k, binary(op), op.String())
			}
			for p := ir.CmpEQ; p <= ir.CmpUGE; p++ {
				add(ir.OpFCmp, k, func(bd *ir.Builder, v []ir.Value) ir.Value { return bd.FCmp(p, v[0], v[1]) },
					"fcmp "+p.String())
			}
		}
		k := []*ir.Const{ir.ConstFloat(a)}
		add(ir.OpFNeg, k, func(bd *ir.Builder, v []ir.Value) ir.Value { return bd.FNeg(v[0]) }, "fneg")
		add(ir.OpFPTrunc, k, cast(ir.OpFPTrunc, ir.F64), "fptrunc")
		add(ir.OpFPExt, k, cast(ir.OpFPExt, ir.F64), "fpext")
		for _, ty := range intTypes {
			add(ir.OpFPToSI, k, cast(ir.OpFPToSI, ty), "fptosi to "+ty.String())
			add(ir.OpFPToUI, k, cast(ir.OpFPToUI, ty), "fptoui to "+ty.String())
		}
	}

	// icmp eq (xor i1 %c, true), true with %c false: the negation of false
	// is the i1 constant true, whichever side evaluates it.
	add(ir.OpICmp, []*ir.Const{ir.ConstBool(false)}, func(bd *ir.Builder, v []ir.Value) ir.Value {
		return bd.ICmp(ir.CmpEQ, bd.Xor(v[0], ir.ConstBool(true)), ir.ConstBool(true))
	}, "icmp eq (xor c, true), true")
	return cases
}

// TestFoldMatchesExecution pins the optimizer's constant folder to the
// engines: for each case both engines run the module as built (the
// operands reach the instruction through memory, so it executes) and
// after passes.Optimize at O3 (mem2reg exposes the constants and the
// folder evaluates the instruction). All four runs must observe the same
// bytes or the same trap; where the engines trap, the folder must have
// left the instruction in place, and elsewhere it must have folded it.
func TestFoldMatchesExecution(t *testing.T) {
	engines := []interp.Engine{interp.Tree, vm.Engine{}}
	for _, c := range foldCases() {
		m0, m3 := foldModule(c), foldModule(c)
		if err := passes.Optimize(m3, passes.O3); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := observe(m0, interp.Tree)
		for _, eng := range engines {
			if got := observe(m0, eng); got != want {
				t.Errorf("%s: %s at O0 = %s, tree interpreter = %s", c.name, eng.Name(), got, want)
			}
			if got := observe(m3, eng); got != want {
				t.Errorf("%s: %s after O3 = %s, at O0 = %s", c.name, eng.Name(), got, want)
			}
		}
		trapped := strings.HasPrefix(want, "trap")
		if left := countOp(m3, c.op) > 0; left != trapped {
			t.Errorf("%s: traps at O0: %v, left unfolded at O3: %v\n%s", c.name, trapped, left, m3)
		}
	}
}
