package ir

import "testing"

// TestBuilderFixedArityAllocs: every fixed-arity constructor, and GEP with
// one or two indices, allocates its instruction and operand array together,
// branches their block array too (GEP's second allocation is its result
// type), and Args holds exactly the operands with len == cap, like a slice
// literal.
func TestBuilderFixedArityAllocs(t *testing.T) {
	f := NewFunction("f", I64, []string{"a", "b"}, []*Type{I64, I64})
	b := f.NewBlock("entry")
	other := f.NewBlock("other")
	bd := NewBuilder(b)
	a, c := f.Params[0], f.Params[1]
	ptr := bd.Alloca(I64)
	x, y := ConstFloat(1), ConstFloat(2)
	arr := bd.Alloca(ArrayOf(I64, 4))
	zero := ConstInt(I64, 0)
	cond := bd.ICmp(CmpSLT, a, c)
	cases := []struct {
		name   string
		allocs float64
		ops    []Value
		emit   func() *Instr
	}{
		{"binary", 1, []Value{a, c}, func() *Instr { return bd.Binary(OpMul, a, c) }},
		{"icmp", 1, []Value{a, c}, func() *Instr { return bd.ICmp(CmpEQ, a, c) }},
		{"fcmp", 1, []Value{x, y}, func() *Instr { return bd.FCmp(CmpSLT, x, y) }},
		{"store", 1, []Value{a, ptr}, func() *Instr { return bd.Store(a, ptr) }},
		{"fneg", 1, []Value{x}, func() *Instr { return bd.FNeg(x) }},
		{"load", 1, []Value{ptr}, func() *Instr { return bd.Load(ptr) }},
		{"cast", 1, []Value{a}, func() *Instr { return bd.Cast(OpSIToFP, a, F64) }},
		{"ret", 1, []Value{a}, func() *Instr { return bd.Ret(a) }},
		{"select", 1, []Value{cond, a, c}, func() *Instr { return bd.Select(cond, a, c) }},
		{"condbr", 1, []Value{cond}, func() *Instr { return bd.CondBr(cond, other, other) }},
		{"br", 1, nil, func() *Instr { return bd.Br(other) }},
		{"gep1", 2, []Value{ptr, a}, func() *Instr { return bd.GEP(ptr, a) }},
		{"gep2", 2, []Value{arr, zero, a}, func() *Instr { return bd.GEP(arr, zero, a) }},
	}
	for _, tc := range cases {
		in := tc.emit()
		if len(in.Args) != len(tc.ops) || cap(in.Args) != len(tc.ops) {
			t.Fatalf("%s: len/cap(Args) = %d/%d, want %d", tc.name, len(in.Args), cap(in.Args), len(tc.ops))
		}
		for i, v := range tc.ops {
			if in.Args[i] != v {
				t.Fatalf("%s: Args[%d] = %v, want %v", tc.name, i, in.Args[i], v)
			}
		}
		b.Instrs = make([]*Instr, 0, 256) // appends below must not grow it
		if got := testing.AllocsPerRun(100, func() { tc.emit() }); got != tc.allocs {
			t.Errorf("%s: %v allocations per instruction, want %v", tc.name, got, tc.allocs)
		}
	}
}
