package ir_test

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// verifyBase is a well-formed module the edit cases below break in one
// place each; the text cases need no edit because ParseModule verifies.
const verifyBase = `
define i64 @g(i64 %q) {
entry:
  %t1 = add i64 %q, 1
  ret i64 %t1
}

define i64 @f(i64 %a, double %x, i64* %p) {
entry:
  %t1 = add i64 %a, 1
  %t2 = fadd double %x, 1.5
  %t3 = fneg double %t2
  %t4 = alloca i64
  %t5 = load i64, i64* %p
  store i64 %t5, i64* %t4
  %t6 = getelementptr i64* %p, i64 1
  %t7 = icmp slt i64 %t1, %t5
  %t8 = select i1 %t7, i64 %t1, i64 %t5
  %t9 = call i64 @g(i64 %t8)
  %t10 = sitofp i64 %t9 to double
  br i1 %t7, label %then, label %join
then:
  switch i64 %t9, label %join [1: label %join]
join:
  %t11 = phi i64 [ %t1, %entry ], [ %t9, %then ]
  ret i64 %t11
}
`

// instrAt returns instruction i of the block labelled label in function fn.
func instrAt(m *ir.Module, fn, label string, i int) *ir.Instr {
	for _, b := range m.Func(fn).Blocks {
		if b.Label() == label {
			return b.Instrs[i]
		}
	}
	panic("no block " + label)
}

// TestVerifyErrors pins the exact message of every error branch of
// Function.Verify, checkPhi, checkOperands and verifyDominance. Cases with
// only text fail inside ParseModule; cases with an edit parse src, apply the
// edit and then verify. The parser renumbers values, so the messages name
// them by their new IDs, not by the %tN written in src.
func TestVerifyErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		edit func(m *ir.Module)
		want string
	}{
		{
			name: "empty block",
			src: `define i64 @f() {
entry:
  br label %next
next:
}`,
			want: "function @f: block next is empty",
		},
		{
			name: "missing terminator",
			src: `define i64 @f() {
entry:
  %t1 = add i64 1, 2
}`,
			want: "function @f: block entry does not end in a terminator",
		},
		{
			name: "terminator mid-block",
			src: `define i64 @f() {
entry:
  ret i64 1
  ret i64 2
}`,
			want: "function @f: block entry has terminator ret mid-block",
		},
		{
			name: "wrong parent",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				instrAt(m, "f", "entry", 0).Parent = m.Func("f").Blocks[2]
			},
			want: "function @f: instruction add in entry has wrong parent",
		},
		{
			name: "phi not at block head",
			src: `define i64 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %b
b:
  %t1 = phi i64 [ 1, %entry ], [ 2, %a ]
  %t2 = add i64 1, 2
  ret i64 %t1
}`,
			edit: func(m *ir.Module) {
				b := m.Func("f").Blocks[2]
				b.Instrs[0], b.Instrs[1] = b.Instrs[1], b.Instrs[0]
			},
			want: "function @f: block b: phi not at block head",
		},
		{
			name: "phi values and blocks mismatched",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				phi := instrAt(m, "f", "join", 0)
				phi.Args = phi.Args[:1]
			},
			want: "function @f: block join: phi has mismatched values/blocks",
		},
		{
			name: "phi edge missing",
			src: `define i64 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %b
b:
  %t1 = phi i64 [ 1, %entry ]
  ret i64 %t1
}`,
			want: "function @f: block b: phi %t6 missing incoming edge from a",
		},
		{
			name: "phi edge from non-predecessor",
			src: `define i64 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %b
b:
  %t1 = phi i64 [ 1, %entry ], [ 2, %a ], [ 3, %b ]
  ret i64 %t1
}`,
			want: "function @f: block b: phi %t6 has edge from non-predecessor b",
		},
		{
			name: "instruction from another function",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				instrAt(m, "f", "entry", 0).Args[1] = instrAt(m, "g", "entry", 0)
			},
			want: "function @f: block entry: add uses instruction from another function",
		},
		{
			name: "foreign parameter",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				instrAt(m, "f", "entry", 0).Args[0] = m.Func("g").Params[0]
			},
			want: "function @f: block entry: add uses foreign parameter %q",
		},
		{
			name: "use of value from unreachable block",
			src: `define i64 @f() {
entry:
  br label %b
dead:
  %t1 = add i64 1, 2
  br label %b
b:
  %t2 = add i64 %t1, 1
  ret i64 %t2
}`,
			want: "function @f: add in b uses value defined in unreachable block",
		},
		{
			name: "use before def in one block",
			src: `define i64 @f() {
entry:
  %t2 = add i64 %t1, 1
  %t1 = add i64 1, 2
  ret i64 %t2
}`,
			want: "function @f: add in entry uses %t3 before definition",
		},
		{
			name: "def does not dominate use",
			src: `define i64 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %t1 = add i64 1, 2
  br label %b
b:
  %t2 = add i64 %t1, 1
  ret i64 %t2
}`,
			want: "function @f: add in b: operand %t5 defined in a does not dominate use",
		},
		{
			name: "phi incoming does not dominate its edge",
			src: `define i64 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %t1 = add i64 1, 2
  br label %b
b:
  %t2 = phi i64 [ %t1, %entry ], [ %t1, %a ]
  ret i64 %t2
}`,
			want: "function @f: phi %t7 in b: incoming %t5 does not dominate edge entry",
		},
		{
			// The user appears at positions 0 and 2 and its operand at 1:
			// the first occurrence is a use before the definition.
			name: "same instruction twice in one block",
			src: `define i64 @f() {
entry:
  %t1 = add i64 1, 2
  %t2 = add i64 %t1, 1
  ret i64 %t2
}`,
			edit: func(m *ir.Module) {
				b := m.Func("f").Blocks[0]
				t1, t2, ret := b.Instrs[0], b.Instrs[1], b.Instrs[2]
				b.Instrs = []*ir.Instr{t2, t1, t2, ret}
			},
			want: "function @f: add in entry uses %t2 before definition",
		},

		// checkOperands, one case per error branch.
		{
			name: "ret with multiple values",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				ret := instrAt(m, "f", "join", 1)
				ret.Args = append(ret.Args, ir.ConstInt(ir.I64, 0))
			},
			want: "function @f: block join: ret i64 %t17: ret with multiple values",
		},
		{
			name: "br without one target",
			src: `define i64 @f() {
entry:
  br label %b
b:
  ret i64 0
}`,
			edit: func(m *ir.Module) {
				br := instrAt(m, "f", "entry", 0)
				br.Blocks = append(br.Blocks, br.Blocks[0])
			},
			want: "function @f: block entry: br label %b: br needs one target",
		},
		{
			name: "condbr operand count",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				br := instrAt(m, "f", "entry", 11)
				br.Args = append(br.Args, br.Args[0])
			},
			want: "function @f: block entry: br i1 %t11, label %then, label %join: want 1 operands, have 2",
		},
		{
			name: "condbr condition type",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				instrAt(m, "f", "entry", 11).Args[0] = ir.ConstInt(ir.I64, 1)
			},
			want: "function @f: block entry: br i64 1, label %then, label %join: condbr condition is i64, want i1",
		},
		{
			name: "condbr target count",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				br := instrAt(m, "f", "entry", 11)
				br.Blocks = append(br.Blocks, br.Blocks[0])
			},
			want: "function @f: block entry: br i1 %t11, label %then, label %join: condbr needs two targets",
		},
		{
			name: "switch operand count",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				sw := instrAt(m, "f", "then", 0)
				sw.Args = append(sw.Args, sw.Args[0])
			},
			want: "function @f: block then: switch i64 %t13, label %join [1: label %join]: want 1 operands, have 2",
		},
		{
			name: "switch case/target mismatch",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				sw := instrAt(m, "f", "then", 0)
				sw.SwitchVals = sw.SwitchVals[:0]
			},
			want: "function @f: block then: switch i64 %t13, label %join []: switch case/target mismatch",
		},
		{
			name: "integer op operand count",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				add := instrAt(m, "f", "entry", 0)
				add.Args = add.Args[:1]
			},
			want: "function @f: block entry: %t4 = add i64 %a: want 2 operands, have 1",
		},
		{
			name: "integer op on float",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				instrAt(m, "f", "entry", 0).Args[0] = m.Func("f").Params[1]
			},
			want: "function @f: block entry: %t4 = add i64 %x, 1: integer op on double, i64",
		},
		{
			name: "float op operand count",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				fadd := instrAt(m, "f", "entry", 1)
				fadd.Args = fadd.Args[:1]
			},
			want: "function @f: block entry: %t5 = fadd double %x: want 2 operands, have 1",
		},
		{
			name: "float op on integer",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				instrAt(m, "f", "entry", 1).Args[0] = m.Func("f").Params[0]
			},
			want: "function @f: block entry: %t5 = fadd double %a, 1.5: float op on i64, double",
		},
		{
			name: "fneg operand count",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				fneg := instrAt(m, "f", "entry", 2)
				fneg.Args = append(fneg.Args, fneg.Args[0])
			},
			want: "function @f: block entry: %t6 = fneg double %t5: want 1 operands, have 2",
		},
		{
			name: "alloca without element type",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				instrAt(m, "f", "entry", 3).AllocaTy = nil
			},
			want: "function @f: block entry: %t7 = alloca void: alloca without element type",
		},
		{
			name: "load operand count",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				ld := instrAt(m, "f", "entry", 4)
				ld.Args = append(ld.Args, ld.Args[0])
			},
			want: "function @f: block entry: %t8 = load i64, i64* %p: want 1 operands, have 2",
		},
		{
			name: "load from non-pointer",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				instrAt(m, "f", "entry", 4).Args[0] = m.Func("f").Params[0]
			},
			want: "function @f: block entry: %t8 = load i64, i64 %a: load from i64",
		},
		{
			name: "store operand count",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				st := instrAt(m, "f", "entry", 5)
				st.Args = append(st.Args, st.Args[0])
			},
			want: "function @f: block entry: store i64 %t8, i64* %t7: want 2 operands, have 3",
		},
		{
			name: "store to non-pointer",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				instrAt(m, "f", "entry", 5).Args[1] = m.Func("f").Params[0]
			},
			want: "function @f: block entry: store i64 %t8, i64 %a: store to i64",
		},
		{
			name: "gep without index",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				gep := instrAt(m, "f", "entry", 6)
				gep.Args = gep.Args[:1]
			},
			want: "function @f: block entry: %t10 = getelementptr i64* %p: gep needs base and index",
		},
		{
			name: "gep base not a pointer",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				instrAt(m, "f", "entry", 6).Args[0] = m.Func("f").Params[0]
			},
			want: "function @f: block entry: %t10 = getelementptr i64 %a, i64 1: gep base is i64",
		},
		{
			name: "icmp operand count",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				cmp := instrAt(m, "f", "entry", 7)
				cmp.Args = append(cmp.Args, cmp.Args[0])
			},
			want: "function @f: block entry: %t11 = icmp slt i64 %t4, %t8: want 2 operands, have 3",
		},
		{
			name: "select operand count",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				sel := instrAt(m, "f", "entry", 8)
				sel.Args = append(sel.Args, sel.Args[0])
			},
			want: "function @f: block entry: %t12 = select i1 %t11, i64 %t4, i64 %t8: want 3 operands, have 4",
		},
		{
			name: "call without target",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				instrAt(m, "f", "entry", 9).Callee = nil
			},
			want: "function @f: block entry: %t13 = call i64 @(i64 %t12): call without target",
		},
		{
			name: "call argument count",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				call := instrAt(m, "f", "entry", 9)
				call.Args = append(call.Args, call.Args[0])
			},
			want: "function @f: block entry: %t13 = call i64 @g(i64 %t12, i64 %t12): call @g with 2 args, want 1",
		},
		{
			name: "cast operand count",
			src:  verifyBase,
			edit: func(m *ir.Module) {
				cv := instrAt(m, "f", "entry", 10)
				cv.Args = append(cv.Args, cv.Args[0])
			},
			want: "function @f: block entry: %t14 = sitofp i64 %t13 to double: want 1 operands, have 2",
		},
	}
	const parsePrefix = "ir: parsed module is invalid: "
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := ir.ParseModule(tc.src)
			if tc.edit != nil {
				if err != nil {
					t.Fatalf("base does not parse: %v", err)
				}
				tc.edit(m)
				err = m.Verify()
			} else if err != nil && !strings.HasPrefix(err.Error(), parsePrefix) {
				t.Fatalf("parse failed before verification: %v", err)
			}
			if err == nil {
				t.Fatalf("no error, want %q", tc.want)
			}
			if got := strings.TrimPrefix(err.Error(), parsePrefix); got != tc.want {
				t.Errorf("error\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
