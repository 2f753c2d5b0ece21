package ir

import (
	"fmt"
	"math"
	"strconv"
)

// Thaw reconstructs a mutable pointer module from a flat snapshot. It is
// the write-side counterpart of Flatten: where Clone walks the pointer
// graph and allocates every node individually (~one allocation per
// instruction, block, operand slice and map entry), Thaw sizes a handful of
// arenas straight from the flat tables and carves every node and operand
// span out of them, so a thawed copy costs a near-constant number of
// allocations regardless of program size.
//
// Sharing invariants (difftest's fuzz campaign pins these in every
// module-level cell, thawed copy against clone):
//
//   - Shared with the master, exactly like Clone: types (immutable,
//     including Function.Sig and Global.Elem), foreign call targets and
//     unknown globals (Funcs/Globals rows past the module tables), and
//     interned strings. No pass mutates any of them.
//   - Rebuilt fresh: functions, blocks, instructions, parameters, module
//     globals (with copied initializers) — everything a transform mutates.
//   - Constants are materialized one object per operand use, not one per
//     interned pool entry. The flat pool interns by payload, but passes
//     compare operands by pointer identity (e.g. instcombine's a == b
//     rules), and the front end allocates a fresh *Const per operand — so
//     per-use materialization reproduces the master's aliasing structure
//     exactly, keeping thawed and cloned transforms step-identical.
//
// Every variable-length field (Args, Blocks, SwitchVals, Block.Instrs,
// Function.Blocks, Function.Params) is a len==cap sub-slice of a pooled
// arena: in-place mutation stays inside the span it owns, and any append
// that would outgrow a span reallocates instead of stomping its neighbour.
//
// Thaw reads fl and the shared master objects only; it never writes
// through fl, so any number of goroutines may thaw one Flat concurrently.
func Thaw(fl *Flat) *Module {
	nInstr := fl.NumInstrs()
	nFuncs := int(fl.NumModFuncs)

	// One counting pass over the operand pool (dense, cache-friendly) sizes
	// the per-use constant arena.
	nConstUses := 0
	for i := range fl.Operands {
		if fl.Operands[i].Kind == OperConst {
			nConstUses++
		}
	}
	nKnown, nInitI, nInitF := 0, 0, 0
	for i := range fl.Globals {
		if fl.Globals[i].Known {
			nKnown++
			nInitI += len(fl.Globals[i].G.InitI)
			nInitF += len(fl.Globals[i].G.InitF)
		}
	}

	instrs := make([]Instr, nInstr)
	blocks := make([]Block, len(fl.Blocks))
	fns := make([]Function, nFuncs)
	params := make([]Param, len(fl.ParamNames))
	consts := make([]Const, nConstUses)
	args := make([]Value, len(fl.Operands))
	instrPtrs := make([]*Instr, nInstr)
	paramPtrs := make([]*Param, len(fl.ParamNames))
	// blkPtrs serves both instruction block-operand spans (the BlockArgs
	// prefix, addressed by the BArg spans) and function block lists (the
	// tail, carved off sequentially).
	blkPtrs := make([]*Block, len(fl.BlockArgs)+len(fl.Blocks))
	swVals := append([]int64(nil), fl.SwitchVals...)
	fnPtrs := make([]*Function, len(fl.Funcs))
	gPtrs := make([]*Global, len(fl.Globals))

	m := &Module{
		Name:      fl.Mod.Name,
		Functions: make([]*Function, 0, nFuncs),
		Globals:   make([]*Global, 0, nKnown),
		fnByName:  make(map[string]*Function, nFuncs),
		gByName:   make(map[string]*Global, nKnown),
	}

	// Module globals are rebuilt with copied initializers (a transform may
	// rewrite them in place); unknown globals are shared, like Clone.
	gArena := make([]Global, nKnown)
	var initI []int64
	var initF []float64
	if nInitI > 0 {
		initI = make([]int64, 0, nInitI)
	}
	if nInitF > 0 {
		initF = make([]float64, 0, nInitF)
	}
	gi := 0
	for i := range fl.Globals {
		row := &fl.Globals[i]
		if !row.Known {
			gPtrs[i] = row.G
			continue
		}
		src := row.G
		g := &gArena[gi]
		gi++
		g.Name, g.Elem, g.Const = src.Name, src.Elem, src.Const
		if n := len(src.InitI); n > 0 {
			p := len(initI)
			initI = append(initI, src.InitI...)
			g.InitI = initI[p : p+n : p+n]
		}
		if n := len(src.InitF); n > 0 {
			p := len(initF)
			initF = append(initF, src.InitF...)
			g.InitF = initF[p : p+n : p+n]
		}
		m.AddGlobal(g)
		gPtrs[i] = g
	}

	// Function shells first, so calls and function-pointer operands can
	// resolve forward. Foreign rows (past NumModFuncs) share the master's
	// object, exactly like Clone leaves unmapped callees alone.
	for fi := 0; fi < nFuncs; fi++ {
		row := &fl.Funcs[fi]
		f := &fns[fi]
		f.Name, f.Sig, f.nid = row.Name, row.Sig, int(row.NID)
		if row.Par1 > row.Par0 {
			pp := paramPtrs[row.Par0:row.Par1:row.Par1]
			for j := range pp {
				p := &params[int(row.Par0)+j]
				p.Name = fl.ParamNames[int(row.Par0)+j]
				p.Ty = fl.Types[fl.ParamTypes[int(row.Par0)+j]]
				p.Index = j
				pp[j] = p
			}
			f.Params = pp
		}
		m.Add(f)
		fnPtrs[fi] = f
	}
	for fi := nFuncs; fi < len(fl.Funcs); fi++ {
		fnPtrs[fi] = fl.Funcs[fi].F
	}

	for bi := range fl.Blocks {
		row := &fl.Blocks[bi]
		b := &blocks[bi]
		if row.Name >= 0 {
			b.Name = fl.Strings[row.Name]
		}
		b.ID = int(row.ID)
		b.Fn = &fns[row.Fn]
		ip := instrPtrs[row.Ins0:row.Ins1:row.Ins1]
		for j := range ip {
			ip[j] = &instrs[int(row.Ins0)+j]
		}
		b.Instrs = ip
	}
	cur := len(fl.BlockArgs)
	for fi := 0; fi < nFuncs; fi++ {
		row := &fl.Funcs[fi]
		nb := int(row.Blk1 - row.Blk0)
		fb := blkPtrs[cur : cur+nb : cur+nb]
		for j := range fb {
			fb[j] = &blocks[int(row.Blk0)+j]
		}
		fns[fi].Blocks = fb
		cur += nb
	}

	ci := 0
	for i := 0; i < nInstr; i++ {
		row := &fl.Instrs[i]
		next := &fl.Instrs[i+1]
		in := &instrs[i]
		in.Op = Opcode(fl.Ops[i])
		in.Ty = fl.Types[row.Ty]
		in.Pred = CmpPred(row.Pred)
		in.ID = int(row.ID)
		in.Parent = &blocks[row.Blk]
		if next.Arg0 > row.Arg0 {
			as := args[row.Arg0:next.Arg0:next.Arg0]
			for j := range as {
				op := fl.Operands[int(row.Arg0)+j]
				switch op.Kind {
				case OperInstr:
					as[j] = &instrs[op.Idx]
				case OperConst:
					fc := &fl.Consts[op.Idx]
					c := &consts[ci]
					ci++
					c.Ty, c.I, c.F = fl.Types[fc.Ty], fc.I, fc.F
					as[j] = c
				case OperParam:
					as[j] = &params[op.Idx]
				case OperGlobal:
					as[j] = gPtrs[op.Idx]
				case OperFunc:
					as[j] = fnPtrs[op.Idx]
				case OperBadInstr:
					// Detached instruction: synthesize a stand-in with the
					// same %t ref so printing and re-flattening agree.
					as[j] = &Instr{ID: badRefID(fl.Strings[op.Idx])}
				case OperBadParam:
					as[j] = &Param{Name: fl.Strings[op.Idx], Index: -1}
				default:
					// OperUnknown: the flat view never captured the value;
					// leave a nil operand (re-flattens to OperUnknown).
				}
			}
			in.Args = as
		}
		if next.BArg0 > row.BArg0 {
			bs := blkPtrs[row.BArg0:next.BArg0:next.BArg0]
			for j := range bs {
				bs[j] = &blocks[fl.BlockArgs[int(row.BArg0)+j]]
			}
			in.Blocks = bs
		}
		if next.Sw0 > row.Sw0 {
			in.SwitchVals = swVals[row.Sw0:next.Sw0:next.Sw0]
		}
		switch in.Op {
		case OpCall:
			if row.Aux >= 0 {
				in.Callee = fnPtrs[row.Aux]
			} else {
				in.Builtin = fl.Strings[-2-row.Aux]
			}
		case OpAlloca:
			if row.Aux >= 0 {
				in.AllocaTy = fl.Types[row.Aux]
			}
		}
	}
	return m
}

// badRefID recovers the numeric ID from a "%tN" reference string.
func badRefID(ref string) int {
	if len(ref) > 2 && ref[0] == '%' && ref[1] == 't' {
		if n, err := strconv.Atoi(ref[2:]); err == nil {
			return n
		}
	}
	return -1
}

// FlatDiff structurally compares two flat views, ignoring embedded master
// pointers (Mod, FlatFunc.Sig/F, FlatGlobal.G, the Types pool — types and
// signatures compare by rendered string, globals by name). It returns ""
// when the tables are identical, else a description of the first
// difference. The Flatten→Thaw→Flatten round-trip suite and the opcode
// coverage sweep assert emptiness.
func FlatDiff(a, b *Flat) string {
	if a.NumModFuncs != b.NumModFuncs {
		return fmt.Sprintf("NumModFuncs: %d vs %d", a.NumModFuncs, b.NumModFuncs)
	}
	if a.MainIdx != b.MainIdx {
		return fmt.Sprintf("MainIdx: %d vs %d", a.MainIdx, b.MainIdx)
	}
	if len(a.Funcs) != len(b.Funcs) {
		return fmt.Sprintf("len(Funcs): %d vs %d", len(a.Funcs), len(b.Funcs))
	}
	for i := range a.Funcs {
		fa, fb := &a.Funcs[i], &b.Funcs[i]
		if fa.Name != fb.Name || fa.NID != fb.NID ||
			fa.Blk0 != fb.Blk0 || fa.Blk1 != fb.Blk1 ||
			fa.Ins0 != fb.Ins0 || fa.Ins1 != fb.Ins1 ||
			fa.Par0 != fb.Par0 || fa.Par1 != fb.Par1 {
			return fmt.Sprintf("Funcs[%d]: %+v vs %+v", i, *fa, *fb)
		}
		if fa.Sig.String() != fb.Sig.String() {
			return fmt.Sprintf("Funcs[%d].Sig: %s vs %s", i, fa.Sig, fb.Sig)
		}
	}
	if len(a.Blocks) != len(b.Blocks) {
		return fmt.Sprintf("len(Blocks): %d vs %d", len(a.Blocks), len(b.Blocks))
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			return fmt.Sprintf("Blocks[%d]: %+v vs %+v", i, a.Blocks[i], b.Blocks[i])
		}
	}
	if len(a.Ops) != len(b.Ops) {
		return fmt.Sprintf("len(Ops): %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			return fmt.Sprintf("Ops[%d]: %v vs %v", i, Opcode(a.Ops[i]), Opcode(b.Ops[i]))
		}
	}
	if len(a.Instrs) != len(b.Instrs) {
		return fmt.Sprintf("len(Instrs): %d vs %d", len(a.Instrs), len(b.Instrs))
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] {
			return fmt.Sprintf("Instrs[%d]: %+v vs %+v", i, a.Instrs[i], b.Instrs[i])
		}
	}
	if len(a.Operands) != len(b.Operands) {
		return fmt.Sprintf("len(Operands): %d vs %d", len(a.Operands), len(b.Operands))
	}
	for i := range a.Operands {
		if a.Operands[i] != b.Operands[i] {
			return fmt.Sprintf("Operands[%d]: %+v vs %+v", i, a.Operands[i], b.Operands[i])
		}
	}
	if len(a.BlockArgs) != len(b.BlockArgs) {
		return fmt.Sprintf("len(BlockArgs): %d vs %d", len(a.BlockArgs), len(b.BlockArgs))
	}
	for i := range a.BlockArgs {
		if a.BlockArgs[i] != b.BlockArgs[i] {
			return fmt.Sprintf("BlockArgs[%d]: %d vs %d", i, a.BlockArgs[i], b.BlockArgs[i])
		}
	}
	if len(a.SwitchVals) != len(b.SwitchVals) {
		return fmt.Sprintf("len(SwitchVals): %d vs %d", len(a.SwitchVals), len(b.SwitchVals))
	}
	for i := range a.SwitchVals {
		if a.SwitchVals[i] != b.SwitchVals[i] {
			return fmt.Sprintf("SwitchVals[%d]: %d vs %d", i, a.SwitchVals[i], b.SwitchVals[i])
		}
	}
	if len(a.TypeStrs) != len(b.TypeStrs) {
		return fmt.Sprintf("len(Types): %d vs %d", len(a.TypeStrs), len(b.TypeStrs))
	}
	for i := range a.TypeStrs {
		if a.TypeStrs[i] != b.TypeStrs[i] {
			return fmt.Sprintf("TypeStrs[%d]: %q vs %q", i, a.TypeStrs[i], b.TypeStrs[i])
		}
	}
	if len(a.Consts) != len(b.Consts) {
		return fmt.Sprintf("len(Consts): %d vs %d", len(a.Consts), len(b.Consts))
	}
	for i := range a.Consts {
		ca, cb := &a.Consts[i], &b.Consts[i]
		// Floats compare by bit pattern: distinct NaN payloads are distinct
		// pool entries and must stay that way through a thaw.
		if ca.Ty != cb.Ty || ca.I != cb.I ||
			math.Float64bits(ca.F) != math.Float64bits(cb.F) {
			return fmt.Sprintf("Consts[%d]: %+v vs %+v", i, *ca, *cb)
		}
	}
	if len(a.ConstAlias) != len(b.ConstAlias) {
		return fmt.Sprintf("len(ConstAlias): %d vs %d", len(a.ConstAlias), len(b.ConstAlias))
	}
	for i := range a.ConstAlias {
		if a.ConstAlias[i] != b.ConstAlias[i] {
			return fmt.Sprintf("ConstAlias[%d]: %d vs %d", i, a.ConstAlias[i], b.ConstAlias[i])
		}
	}
	if len(a.Globals) != len(b.Globals) {
		return fmt.Sprintf("len(Globals): %d vs %d", len(a.Globals), len(b.Globals))
	}
	for i := range a.Globals {
		ga, gb := &a.Globals[i], &b.Globals[i]
		if ga.G.Name != gb.G.Name || ga.Elem != gb.Elem ||
			ga.NameAlias != gb.NameAlias || ga.Known != gb.Known {
			return fmt.Sprintf("Globals[%d]: %+v vs %+v", i, *ga, *gb)
		}
	}
	if len(a.Strings) != len(b.Strings) {
		return fmt.Sprintf("len(Strings): %d vs %d", len(a.Strings), len(b.Strings))
	}
	for i := range a.Strings {
		if a.Strings[i] != b.Strings[i] {
			return fmt.Sprintf("Strings[%d]: %q vs %q", i, a.Strings[i], b.Strings[i])
		}
	}
	if len(a.ParamNames) != len(b.ParamNames) {
		return fmt.Sprintf("len(ParamNames): %d vs %d", len(a.ParamNames), len(b.ParamNames))
	}
	for i := range a.ParamNames {
		if a.ParamNames[i] != b.ParamNames[i] {
			return fmt.Sprintf("ParamNames[%d]: %q vs %q", i, a.ParamNames[i], b.ParamNames[i])
		}
	}
	if len(a.ParamTypes) != len(b.ParamTypes) {
		return fmt.Sprintf("len(ParamTypes): %d vs %d", len(a.ParamTypes), len(b.ParamTypes))
	}
	for i := range a.ParamTypes {
		if a.ParamTypes[i] != b.ParamTypes[i] {
			return fmt.Sprintf("ParamTypes[%d]: %d vs %d", i, a.ParamTypes[i], b.ParamTypes[i])
		}
	}
	return ""
}
