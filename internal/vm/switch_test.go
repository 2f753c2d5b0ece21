package vm

import (
	"math"
	"slices"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
)

// switchModule builds main() { switch (trunc(input_i64()) to ty) { ... } }
// where case k returns k and the default returns -1, so the result names
// the case the switch took, and a duplicate value shows which of its cases
// won.
func switchModule(t *testing.T, ty *ir.Type, vals []int64) *ir.Module {
	t.Helper()
	m := ir.NewModule("switch")
	f := m.Add(ir.NewFunction("main", ir.I64, nil, nil))
	bd := ir.NewBuilder(f.NewBlock("entry"))
	var tag ir.Value = bd.CallBuiltin("input_i64", ir.I64)
	if ty != ir.I64 {
		tag = bd.Cast(ir.OpTrunc, tag, ty)
	}
	def := f.NewBlock("default")
	ir.NewBuilder(def).Ret(ir.ConstInt(ir.I64, -1))
	dests := make([]*ir.Block, len(vals))
	for k := range vals {
		dests[k] = f.NewBlock("case")
		ir.NewBuilder(dests[k]).Ret(ir.ConstInt(ir.I64, int64(k)))
	}
	bd.Switch(tag, def, vals, dests)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	return m
}

// switchTags returns the tags to drive a switch with: every case value,
// the neighbours of the value range, the int64 extremes, and every hole of
// a range short enough to walk.
func switchTags(vals []int64) []int64 {
	lo, hi := slices.Min(vals), slices.Max(vals)
	tags := append([]int64{lo - 1, hi + 1, math.MinInt64, math.MaxInt64, 0, -1}, vals...)
	if uint64(hi)-uint64(lo) < 256 {
		for v := lo; v != hi; v++ {
			tags = append(tags, v)
		}
	}
	return tags
}

// TestSwitchTables pins which switches the compiler lowers to jump tables
// and that a table dispatches exactly like the interpreter's case scan:
// tags below, above and between the cases take the default, and a value
// listed twice goes to its first case.
func TestSwitchTables(t *testing.T) {
	stride7 := make([]int64, 12) // fla's dispatch ids, perm[i]*7 + 11
	for i, p := range []int64{5, 0, 9, 3, 11, 1, 7, 2, 10, 4, 8, 6} {
		stride7[i] = p*7 + 11
	}
	for _, tc := range []struct {
		name string
		ty   *ir.Type
		vals []int64
		want op
		// extra tags beyond switchTags, e.g. wide inputs that truncate
		// onto a case
		tags []int64
	}{
		{"dense 0..9", ir.I64, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, opSwitchT, nil},
		{"fla stride 7", ir.I64, stride7, opSwitchT, nil},
		{"span at cap", ir.I64, []int64{0, 1, 2, 48}, opSwitchT, nil},
		{"span over cap", ir.I64, []int64{0, 1, 2, 49}, opSwitch, nil},
		{"sparse", ir.I64, []int64{0, 1000, 2000, 3000}, opSwitch, nil},
		{"three cases", ir.I64, []int64{0, 1, 2}, opSwitch, nil},
		{"duplicates", ir.I64, []int64{3, 5, 3, 7, 5, 9}, opSwitchT, nil},
		{"int64 extremes", ir.I64, []int64{math.MinInt64, 0, 1, math.MaxInt64}, opSwitch, nil},
		{"near MinInt64", ir.I64, []int64{math.MinInt64 + 3, math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 5}, opSwitchT, nil},
		{"near MaxInt64", ir.I64, []int64{math.MaxInt64, math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64 - 4}, opSwitchT, nil},
		{"negative i8", ir.I8, []int64{-4, -3, -2, -1, 0, 1}, opSwitchT, []int64{250, 252, 255, 256, -260}},
		{"negative i32", ir.I32, []int64{-100, -93, -86, -79, -72}, opSwitchT, []int64{1<<32 - 100, 1<<32 - 93, 1<<32 - 90, -1<<32 - 86}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := switchModule(t, tc.ty, tc.vals)
			p, err := Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			var ops []op
			for _, in := range p.funcs[p.main].code {
				if in.op == opSwitch || in.op == opSwitchT {
					ops = append(ops, in.op)
				}
			}
			if len(ops) != 1 || ops[0] != tc.want {
				t.Fatalf("switch ops %v, want [%v]", ops, tc.want)
			}
			for _, tag := range append(switchTags(tc.vals), tc.tags...) {
				opts := interp.Options{Input: []int64{tag}, MaxSteps: 1000}
				want, werr := interp.Tree.Run(m, opts)
				got, gerr := p.Run(opts)
				if werr != nil || gerr != nil {
					t.Fatalf("tag %d: interp err %v, vm err %v", tag, werr, gerr)
				}
				if *got != *want {
					t.Errorf("tag %d: vm %+v, interp %+v", tag, *got, *want)
				}
			}
		})
	}
}
