package vm

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// This file preserves the original pointer-walking bytecode compiler,
// verbatim except for ref* renames, the gepRef residue (which carries the
// same two facts gepSlow used to read through the *ir.Instr), the shared
// denseSwitches pass at the end of refCompile and the i1 width rule (an i1
// is 0 or 1: trunc to i1 masks, sext from i1 negates, and add, sub, shl
// and fptosi results of type i1 are masked). It exists only
// as the equivalence oracle: TestCompileFlatEquivalence pins that the flat
// compiler in compile.go emits bit-identical programs.

// refCompile lowers every function of m into bytecode by walking the pointer
// IR, exactly like vm.Compile before the flat retarget.
func refCompile(m *ir.Module) (*Program, error) {
	p := &Program{mod: m, main: -1}
	fnIndex := make(map[*ir.Function]int32)

	gaddr := make(map[*ir.Global]int64, len(m.Globals))
	sp := int64(16)
	for _, g := range m.Globals {
		size := (int64(g.Elem.Size()) + 7) &^ 7
		gaddr[g] = sp
		sp += size
	}

	for _, f := range m.Functions {
		if f.IsDecl() {
			continue
		}
		fnIndex[f] = int32(len(p.funcs))
		p.funcs = append(p.funcs, nil) // reserve the index before bodies compile
	}
	for _, f := range m.Functions {
		if f.IsDecl() {
			continue
		}
		fc, err := refCompileFunc(f, fnIndex, gaddr, false)
		if err != nil {
			return nil, err
		}
		p.funcs[fnIndex[f]] = fc
	}
	if mf := m.Func("main"); mf != nil {
		idx, defined := fnIndex[mf]
		switch {
		case !defined:
			p.mainDecl = true
		case len(mf.Params) == 0:
			p.main = idx
			p.entry = p.funcs[idx]
		default:
			p.main = idx
			fc, err := refCompileFunc(mf, fnIndex, gaddr, true)
			if err != nil {
				return nil, err
			}
			p.entry = fc
		}
	}
	// Switch-table lowering runs on finished bytecode, so the oracle
	// shares it rather than duplicating it.
	for _, fc := range append(p.funcs, p.entry) {
		if fc != nil {
			denseSwitches(fc)
		}
	}
	return p, nil
}

type refFnCompiler struct {
	f       *ir.Function
	fc      *funcCode
	fnIndex map[*ir.Function]int32
	gaddr   map[*ir.Global]int64
	noArgs  bool

	slots  map[*ir.Instr]int32
	cpool  map[ckey]int32
	temp   int32
	nconst int32

	blockStart map[*ir.Block]int32
	fixups     []refFixup
	edgePC     map[refEdgeKey]int32
	msgIdx     map[string]int32
}

type refEdgeKey struct{ pred, succ *ir.Block }

type refFixup struct {
	pc    int32
	field uint8 // 0 = dst, 1 = b, 2 = swPCs[swIdx]
	swIdx int32
	pred  *ir.Block
	succ  *ir.Block
}

func refCompileFunc(f *ir.Function, fnIndex map[*ir.Function]int32, gaddr map[*ir.Global]int64, noArgs bool) (*funcCode, error) {
	c := &refFnCompiler{
		f:          f,
		fc:         &funcCode{name: f.Name, nparams: len(f.Params)},
		fnIndex:    fnIndex,
		gaddr:      gaddr,
		noArgs:     noArgs,
		slots:      make(map[*ir.Instr]int32),
		cpool:      make(map[ckey]int32),
		blockStart: make(map[*ir.Block]int32, len(f.Blocks)),
		edgePC:     make(map[refEdgeKey]int32),
		msgIdx:     make(map[string]int32),
	}

	next := int32(len(f.Params))
	f.ForEachInstr(func(in *ir.Instr) {
		if in.HasResult() {
			c.slots[in] = next
			next++
		}
	})
	c.temp = next
	c.fc.constBase = int(next) + 1

	for _, b := range f.Blocks {
		c.blockStart[b] = int32(len(c.fc.code))
		c.compileBlock(b)
	}
	c.resolveEdges()
	c.patch()

	c.fc.frameSize = c.fc.constBase + len(c.fc.consts)
	if c.fc.frameSize > math.MaxInt32/2 {
		return nil, fmt.Errorf("vm: function @%s needs %d frame slots", f.Name, c.fc.frameSize)
	}
	return c.fc, nil
}

func (c *refFnCompiler) constSlot(v val) int32 {
	k := ckey{i: v.i, f: math.Float64bits(v.f)}
	if s, ok := c.cpool[k]; ok {
		return s
	}
	s := int32(c.fc.constBase) + c.nconst
	c.cpool[k] = s
	c.nconst++
	c.fc.consts = append(c.fc.consts, v)
	return s
}

func (c *refFnCompiler) slotOf(v ir.Value) (int32, string) {
	switch x := v.(type) {
	case *ir.Const:
		if x.Ty.IsFloat() {
			return c.constSlot(val{f: x.F}), ""
		}
		return c.constSlot(val{i: x.I}), ""
	case *ir.Param:
		if c.noArgs || x.Index >= len(c.f.Params) {
			return 0, "missing argument " + x.Name
		}
		return int32(x.Index), ""
	case *ir.Instr:
		if s, ok := c.slots[x]; ok {
			return s, ""
		}
		return 0, "use of undefined value " + x.Ref() + " in @" + c.f.Name
	case *ir.Global:
		addr, ok := c.gaddr[x]
		if !ok {
			return 0, "use of unknown global @" + x.Name + " in @" + c.f.Name
		}
		return c.constSlot(val{i: addr}), ""
	case *ir.Function:
		return 0, "function pointers are not supported"
	}
	return 0, "unknown value kind"
}

func (c *refFnCompiler) trapMsg(msg string) int32 {
	if i, ok := c.msgIdx[msg]; ok {
		return i
	}
	i := int32(len(c.fc.msgs))
	c.msgIdx[msg] = i
	c.fc.msgs = append(c.fc.msgs, msg)
	return i
}

func (c *refFnCompiler) emit(in inst) int32 {
	pc := int32(len(c.fc.code))
	c.fc.code = append(c.fc.code, in)
	return pc
}

func (c *refFnCompiler) emitTrap(msg string, cost uint8) {
	c.emit(inst{op: opTrap, cost: cost, a: c.trapMsg(msg)})
}

func (c *refFnCompiler) branchTo(pc int32, field uint8, swIdx int32, pred, succ *ir.Block) {
	c.fixups = append(c.fixups, refFixup{pc: pc, field: field, swIdx: swIdx, pred: pred, succ: succ})
}

func (c *refFnCompiler) compileBlock(b *ir.Block) {
	instrs := b.Instrs[b.FirstNonPhi():] // phis compile into edge stubs
	for _, in := range instrs {
		c.compileInstr(b, in)
	}
	if b.Term() == nil {
		c.emitTrap("block "+b.Label()+" fell through without terminator", 0)
	}
}

func (c *refFnCompiler) operands(in *ir.Instr, vs ...ir.Value) ([]int32, bool) {
	slots := make([]int32, len(vs))
	for i, v := range vs {
		s, msg := c.slotOf(v)
		if msg != "" {
			c.emitTrap(msg, 1)
			return nil, false
		}
		slots[i] = s
	}
	return slots, true
}

func (c *refFnCompiler) compileInstr(b *ir.Block, in *ir.Instr) {
	dst := int32(-1)
	if s, ok := c.slots[in]; ok {
		dst = s
	}

	switch {
	case in.Op.IsIntBinary():
		s, ok := c.operands(in, in.Args[0], in.Args[1])
		if !ok {
			return
		}
		c.emit(inst{op: opAdd + op(in.Op-ir.OpAdd), cost: 1, sh: shOf(in.Ty), dst: dst, a: s[0], b: s[1]})
		if isI1(in.Ty) && (in.Op == ir.OpAdd || in.Op == ir.OpSub || in.Op == ir.OpShl) {
			c.emit(inst{op: opZExt, sh: 1, dst: dst, a: dst})
		}
		return
	case in.Op.IsFloatBinary():
		s, ok := c.operands(in, in.Args[0], in.Args[1])
		if !ok {
			return
		}
		c.emit(inst{op: opFAdd + op(in.Op-ir.OpFAdd), cost: 1, dst: dst, a: s[0], b: s[1]})
		return
	}

	switch in.Op {
	case ir.OpRet:
		if len(in.Args) == 0 {
			c.emit(inst{op: opRetVoid, cost: 1})
			return
		}
		s, ok := c.operands(in, in.Args[0])
		if !ok {
			return
		}
		c.emit(inst{op: opRet, cost: 1, a: s[0]})

	case ir.OpBr:
		pc := c.emit(inst{op: opJmp, cost: 1})
		c.branchTo(pc, 0, 0, b, in.Blocks[0])

	case ir.OpCondBr:
		s, ok := c.operands(in, in.Args[0])
		if !ok {
			return
		}
		pc := c.emit(inst{op: opCondBr, cost: 1, a: s[0]})
		c.branchTo(pc, 0, 0, b, in.Blocks[0])
		c.branchTo(pc, 1, 0, b, in.Blocks[1])

	case ir.OpSwitch:
		s, ok := c.operands(in, in.Args[0])
		if !ok {
			return
		}
		base := int32(len(c.fc.swVals))
		pc := c.emit(inst{op: opSwitch, cost: 1, a: s[0], b: base, c: int32(len(in.SwitchVals))})
		c.branchTo(pc, 0, 0, b, in.Blocks[0]) // default
		for i, sv := range in.SwitchVals {
			c.fc.swVals = append(c.fc.swVals, sv)
			c.fc.swPCs = append(c.fc.swPCs, 0)
			c.branchTo(pc, 2, base+int32(i), b, in.Blocks[i+1])
		}

	case ir.OpUnreachable:
		c.emitTrap("reached unreachable in @"+c.f.Name, 1)

	case ir.OpFNeg:
		s, ok := c.operands(in, in.Args[0])
		if !ok {
			return
		}
		c.emit(inst{op: opFNeg, cost: 1, dst: dst, a: s[0]})

	case ir.OpAlloca:
		size := in.AllocaTy.Size()
		if size >= 0 && size <= math.MaxInt32 {
			c.emit(inst{op: opAlloca, cost: 1, dst: dst, c: int32(size)})
			return
		}
		pi := int32(len(c.fc.ipool))
		c.fc.ipool = append(c.fc.ipool, int64(size))
		c.emit(inst{op: opAllocaP, cost: 1, dst: dst, c: pi})

	case ir.OpLoad:
		s, ok := c.operands(in, in.Args[0])
		if !ok {
			return
		}
		c.emit(inst{op: loadOp(in.Ty), cost: 1, dst: dst, a: s[0], c: int32(in.Ty.Size())})

	case ir.OpStore:
		s, ok := c.operands(in, in.Args[0], in.Args[1])
		if !ok {
			return
		}
		vt := in.Args[0].Type()
		c.emit(inst{op: storeOp(vt), cost: 1, a: s[0], b: s[1], c: int32(vt.Size())})

	case ir.OpGEP:
		c.compileGEP(in, dst)

	case ir.OpICmp:
		s, ok := c.operands(in, in.Args[0], in.Args[1])
		if !ok {
			return
		}
		c.emit(inst{op: opIEq + op(in.Pred), cost: 1, dst: dst, a: s[0], b: s[1]})

	case ir.OpFCmp:
		s, ok := c.operands(in, in.Args[0], in.Args[1])
		if !ok {
			return
		}
		c.emit(inst{op: fcmpOp(in.Pred), cost: 1, dst: dst, a: s[0], b: s[1]})

	case ir.OpSelect:
		s, ok := c.operands(in, in.Args[0], in.Args[1], in.Args[2])
		if !ok {
			return
		}
		base := int32(len(c.fc.extra))
		c.fc.extra = append(c.fc.extra, s[1], s[2])
		c.emit(inst{op: opSelect, cost: 1, dst: dst, a: s[0], b: base})

	case ir.OpCall:
		c.compileCall(in, dst)

	case ir.OpTrunc:
		s, ok := c.operands(in, in.Args[0])
		if !ok {
			return
		}
		if isI1(in.Ty) {
			c.emit(inst{op: opZExt, cost: 1, sh: 1, dst: dst, a: s[0]})
		} else if sh := shOf(in.Ty); sh != 0 {
			c.emit(inst{op: opTrunc, cost: 1, sh: sh, dst: dst, a: s[0]})
		} else {
			c.emit(inst{op: opMov, cost: 1, dst: dst, a: s[0]})
		}

	case ir.OpZExt:
		s, ok := c.operands(in, in.Args[0])
		if !ok {
			return
		}
		if from := in.Args[0].Type(); from.Bits < 64 {
			c.emit(inst{op: opZExt, cost: 1, sh: uint8(from.Bits), dst: dst, a: s[0]})
		} else {
			c.emit(inst{op: opMov, cost: 1, dst: dst, a: s[0]})
		}

	case ir.OpFPToSI, ir.OpFPToUI:
		s, ok := c.operands(in, in.Args[0])
		if !ok {
			return
		}
		c.emit(inst{op: opFPToI, cost: 1, sh: shOf(in.Ty), dst: dst, a: s[0]})
		if isI1(in.Ty) {
			c.emit(inst{op: opZExt, sh: 1, dst: dst, a: dst})
		}

	case ir.OpSIToFP:
		s, ok := c.operands(in, in.Args[0])
		if !ok {
			return
		}
		c.emit(inst{op: opSIToFP, cost: 1, dst: dst, a: s[0]})

	case ir.OpUIToFP:
		s, ok := c.operands(in, in.Args[0])
		if !ok {
			return
		}
		c.emit(inst{op: opUIToFP, cost: 1, dst: dst, a: s[0]})

	case ir.OpSExt, ir.OpFPTrunc, ir.OpFPExt, ir.OpPtrToInt, ir.OpIntToPtr,
		ir.OpBitcast, ir.OpAddrSpaceCast, ir.OpFreeze:
		s, ok := c.operands(in, in.Args[0])
		if !ok {
			return
		}
		if in.Op == ir.OpSExt && isI1(in.Args[0].Type()) {
			c.emit(inst{op: opTrunc, cost: 1, sh: 63, dst: dst, a: s[0]})
			return
		}
		c.emit(inst{op: opMov, cost: 1, dst: dst, a: s[0]})

	default:
		c.emitTrap("unimplemented opcode "+in.Op.String(), 1)
	}
}

func refPlanGEP(elem *ir.Type, idxs []ir.Value) ([]gepStep, bool) {
	if elem == nil {
		return nil, false
	}
	var plan []gepStep
	for i, ix := range idxs {
		switch {
		case elem.IsArray():
			elem = elem.Elem
			if elem == nil {
				return nil, false
			}
			plan = append(plan, gepStep{scale: int64(elem.Size()), argIdx: i})
		case elem.IsStruct():
			cst, isConst := ix.(*ir.Const)
			if !isConst || cst.Ty.IsFloat() {
				return nil, false
			}
			fi := cst.I
			if fi < 0 || int(fi) >= len(elem.Fields) {
				return nil, false
			}
			plan = append(plan, gepStep{isOff: true, off: int64(elem.FieldOffset(int(fi)))})
			elem = elem.Fields[fi]
		default:
			return nil, false
		}
	}
	return plan, true
}

func (c *refFnCompiler) compileGEP(in *ir.Instr, dst int32) {
	s, ok := c.operands(in, in.Args...)
	if !ok {
		return
	}
	elem := in.Args[0].Type().Elem
	plan, fast := refPlanGEP(elem, in.Args[2:])
	if !fast {
		gi := int32(len(c.fc.geps))
		c.fc.geps = append(c.fc.geps, gepRef{elem: elem, n: int32(len(in.Args))})
		base := int32(len(c.fc.extra))
		c.fc.extra = append(c.fc.extra, s...)
		c.emit(inst{op: opGEPSlow, cost: 1, dst: dst, a: base, c: gi})
		return
	}
	c.emitScaleAdd(dst, s[0], s[1], int64(elem.Size()), 1)
	for _, st := range plan {
		if st.isOff {
			c.emitAddImm(dst, dst, st.off, 0)
		} else {
			c.emitScaleAdd(dst, dst, s[2+st.argIdx], st.scale, 0)
		}
	}
}

func (c *refFnCompiler) emitScaleAdd(dst, base, idx int32, scale int64, cost uint8) {
	if scale >= 0 && scale <= math.MaxInt32 {
		c.emit(inst{op: opScaleAdd, cost: cost, dst: dst, a: base, b: idx, c: int32(scale)})
		return
	}
	pi := int32(len(c.fc.ipool))
	c.fc.ipool = append(c.fc.ipool, scale)
	c.emit(inst{op: opScaleAddP, cost: cost, dst: dst, a: base, b: idx, c: pi})
}

func (c *refFnCompiler) emitAddImm(dst, base int32, off int64, cost uint8) {
	if off >= 0 && off <= math.MaxInt32 {
		c.emit(inst{op: opAddImm, cost: cost, dst: dst, a: base, c: int32(off)})
		return
	}
	pi := int32(len(c.fc.ipool))
	c.fc.ipool = append(c.fc.ipool, off)
	c.emit(inst{op: opAddImmP, cost: cost, dst: dst, a: base, c: pi})
}

func (c *refFnCompiler) compileCall(in *ir.Instr, dst int32) {
	s, ok := c.operands(in, in.Args...)
	if !ok {
		return
	}
	base := int32(len(c.fc.extra))
	c.fc.extra = append(c.fc.extra, s...)
	if in.Callee != nil {
		idx, defined := c.fnIndex[in.Callee]
		if !defined {
			c.emit(inst{op: opTrapErr, cost: 1, a: c.trapMsg("call to declaration @" + in.Callee.Name)})
			return
		}
		c.emit(inst{op: opCall, cost: 1, dst: dst, a: idx, b: base, c: int32(len(s))})
		return
	}
	bi, known := builtinIndex[in.Builtin]
	if !known {
		c.emitTrap("unknown builtin "+in.Builtin, 1)
		return
	}
	c.emit(inst{op: opCallB, cost: 1, dst: dst, a: bi, b: base, c: int32(len(s))})
}

func (c *refFnCompiler) resolveEdges() {
	for _, fx := range c.fixups {
		key := refEdgeKey{fx.pred, fx.succ}
		if _, done := c.edgePC[key]; done {
			continue
		}
		phis := fx.succ.Phis()
		if len(phis) == 0 {
			c.edgePC[key] = c.blockStart[fx.succ]
			continue
		}
		c.edgePC[key] = c.emitEdgeStub(fx.pred, fx.succ, phis)
	}
}

func (c *refFnCompiler) emitEdgeStub(pred, succ *ir.Block, phis []*ir.Instr) int32 {
	start := int32(len(c.fc.code))
	moves := make([]move, 0, len(phis))
	for _, phi := range phis {
		inc := phi.PhiIncoming(pred)
		if inc == nil {
			c.emitTrap("phi has no incoming value for edge "+pred.Label()+"->"+succ.Label(), 0)
			return start
		}
		src, msg := c.slotOf(inc)
		if msg != "" {
			c.emitTrap(msg, 0)
			return start
		}
		if d := c.slots[phi]; d != src {
			moves = append(moves, move{dst: d, src: src})
		}
	}
	c.scheduleMoves(moves)
	c.emit(inst{op: opStepN, c: int32(len(phis))})
	c.emit(inst{op: opJmp, dst: c.blockStart[succ]})
	return start
}

func (c *refFnCompiler) scheduleMoves(pending []move) {
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); i++ {
			mv := pending[i]
			blocked := false
			for j := range pending {
				if j != i && pending[j].src == mv.dst {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			c.emit(inst{op: opMov, dst: mv.dst, a: mv.src})
			pending = append(pending[:i], pending[i+1:]...)
			i--
			progress = true
		}
		if !progress {
			d := pending[0].dst
			c.emit(inst{op: opMov, dst: c.temp, a: d})
			for j := range pending {
				if pending[j].src == d {
					pending[j].src = c.temp
				}
			}
		}
	}
}

func (c *refFnCompiler) patch() {
	for _, fx := range c.fixups {
		target := c.edgePC[refEdgeKey{fx.pred, fx.succ}]
		switch fx.field {
		case 0:
			c.fc.code[fx.pc].dst = target
		case 1:
			c.fc.code[fx.pc].b = target
		default:
			c.fc.swPCs[fx.swIdx] = target
		}
	}
}
