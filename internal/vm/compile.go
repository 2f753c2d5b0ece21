package vm

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/ir"
)

// Compile lowers every function of m into bytecode. The module is flattened
// first (see ir.Flatten); callers holding a cached flat view should use
// CompileFlat directly and skip the re-flatten.
func Compile(m *ir.Module) (*Program, error) {
	return CompileFlat(ir.Flatten(m))
}

// CompileFlat lowers a flattened module into bytecode. The flat view's
// operand spans map directly onto register operands, so compilation runs
// over dense index tables — no per-function map[*ir.Instr]int32 slot table,
// no pointer-keyed global or callee lookups. The Program keeps a reference
// to the underlying module only for global initialization and diagnostics;
// the view and module may be shared concurrently afterwards as long as
// nothing mutates them.
func CompileFlat(fl *ir.Flat) (*Program, error) {
	p := &Program{mod: fl.Mod, main: -1}

	// Globals land at compile-time-known addresses because the machine
	// allocates them exactly like interp.NewMachine: bump pointer from 16,
	// module order, 8-byte aligned. exec.go re-derives the same addresses
	// at machine init. Rows appended by Flatten for globals unknown to the
	// module get address -1 and trap on use.
	gaddr := make([]int64, len(fl.Globals))
	sp := int64(16)
	for i := range fl.Globals {
		if !fl.Globals[i].Known {
			gaddr[i] = -1
			continue
		}
		size := (int64(fl.Types[fl.Globals[i].Elem].Size()) + 7) &^ 7
		gaddr[i] = sp
		sp += size
	}

	// defIdx maps flat function index -> Program func index; -1 for
	// declarations (including the trailing foreign-callee rows).
	defIdx := make([]int32, len(fl.Funcs))
	for i := range fl.Funcs {
		if fl.Funcs[i].IsDecl() {
			defIdx[i] = -1
			continue
		}
		defIdx[i] = int32(len(p.funcs))
		p.funcs = append(p.funcs, nil) // reserve the index before bodies compile
	}
	for i := range fl.Funcs {
		if defIdx[i] < 0 {
			continue
		}
		fc, err := compileFunc(fl, int32(i), defIdx, gaddr, false)
		if err != nil {
			return nil, err
		}
		p.funcs[defIdx[i]] = fc
	}
	if fl.MainIdx >= 0 {
		mi := fl.MainIdx
		switch {
		case defIdx[mi] < 0:
			p.mainDecl = true
		case fl.Funcs[mi].NumParams() == 0:
			p.main = defIdx[mi]
			p.entry = p.funcs[p.main]
		default:
			// The top-level call passes no arguments, so any parameter use
			// must trap "missing argument" — recursive calls to main from
			// inside the program still use the normal variant.
			p.main = defIdx[mi]
			fc, err := compileFunc(fl, mi, defIdx, gaddr, true)
			if err != nil {
				return nil, err
			}
			p.entry = fc
		}
	}
	return p, nil
}

type fnCompiler struct {
	fl     *ir.Flat
	f      *ir.FlatFunc
	fc     *funcCode
	defIdx []int32
	gaddr  []int64
	noArgs bool // entry-variant: every parameter use traps "missing argument"

	slots  []int32 // frame slot per instruction, indexed by i - f.Ins0; -1 = no result
	cpool  map[ckey]int32
	temp   int32 // phi-cycle scratch slot
	nconst int32

	blockStart []int32 // code offset per block, indexed by b - f.Blk0
	fixups     []fixup
	edgePC     map[edgeKey]int32
	msgIdx     map[string]int32
}

// ckey identifies a constant frame slot by payload. Floats key on their bit
// pattern so +0.0 and -0.0 (and distinct NaNs) stay distinct.
type ckey struct {
	i int64
	f uint64
}

// edgeKey is a (pred, succ) pair of module-wide block indices.
type edgeKey struct{ pred, succ int32 }

// fixup is a branch operand awaiting edge resolution: after all blocks and
// edge stubs are emitted, the named field of code[pc] is patched with the
// entry point of the (pred, succ) edge.
type fixup struct {
	pc    int32
	field uint8 // 0 = dst, 1 = b, 2 = swPCs[swIdx]
	swIdx int32
	pred  int32
	succ  int32
}

func compileFunc(fl *ir.Flat, fi int32, defIdx []int32, gaddr []int64, noArgs bool) (*funcCode, error) {
	f := &fl.Funcs[fi]
	c := &fnCompiler{
		fl:     fl,
		f:      f,
		fc:     &funcCode{name: f.Name, nparams: f.NumParams()},
		defIdx: defIdx,
		gaddr:  gaddr,
		noArgs: noArgs,
		slots:  make([]int32, f.Ins1-f.Ins0),
		cpool:  make(map[ckey]int32),
		edgePC: make(map[edgeKey]int32),
		msgIdx: make(map[string]int32),
	}

	// Slot assignment: params, then every value-producing instruction, then
	// one scratch slot for phi-cycle breaking, then the constant region.
	next := int32(f.NumParams())
	for i := f.Ins0; i < f.Ins1; i++ {
		if fl.HasResult(i) {
			c.slots[i-f.Ins0] = next
			next++
		} else {
			c.slots[i-f.Ins0] = -1
		}
	}
	c.temp = next
	c.fc.constBase = int(next) + 1

	c.blockStart = make([]int32, f.Blk1-f.Blk0)
	for b := f.Blk0; b < f.Blk1; b++ {
		c.blockStart[b-f.Blk0] = int32(len(c.fc.code))
		c.compileBlock(b)
	}
	c.resolveEdges()
	c.patch()
	denseSwitches(c.fc)

	c.fc.frameSize = c.fc.constBase + len(c.fc.consts)
	if c.fc.frameSize > math.MaxInt32/2 {
		return nil, fmt.Errorf("vm: function @%s needs %d frame slots", f.Name, c.fc.frameSize)
	}
	return c.fc, nil
}

// constSlot interns v in the constant pool and returns its frame slot.
func (c *fnCompiler) constSlot(v val) int32 {
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

// slotOf resolves a value operand to a frame slot. A non-empty second
// return is the trap message the interpreter would raise when evaluating
// this operand; the caller compiles the whole instruction to opTrap so the
// trap still fires at the same execution point.
func (c *fnCompiler) slotOf(a ir.Operand) (int32, string) {
	fl := c.fl
	switch a.Kind {
	case ir.OperConst:
		k := &fl.Consts[a.Idx]
		if fl.Types[k.Ty].IsFloat() {
			return c.constSlot(val{f: k.F}), ""
		}
		return c.constSlot(val{i: k.I}), ""
	case ir.OperParam:
		if c.noArgs || a.Idx < c.f.Par0 || a.Idx >= c.f.Par1 {
			return 0, "missing argument " + fl.ParamNames[a.Idx]
		}
		return a.Idx - c.f.Par0, ""
	case ir.OperInstr:
		if a.Idx >= c.f.Ins0 && a.Idx < c.f.Ins1 {
			if s := c.slots[a.Idx-c.f.Ins0]; s >= 0 {
				return s, ""
			}
		}
		return 0, "use of undefined value %t" + strconv.Itoa(int(fl.Instrs[a.Idx].ID)) + " in @" + c.f.Name
	case ir.OperGlobal:
		if addr := c.gaddr[a.Idx]; addr >= 0 {
			return c.constSlot(val{i: addr}), ""
		}
		return 0, "use of unknown global @" + fl.Globals[a.Idx].G.Name + " in @" + c.f.Name
	case ir.OperFunc:
		return 0, "function pointers are not supported"
	case ir.OperBadInstr:
		return 0, "use of undefined value " + fl.Strings[a.Idx] + " in @" + c.f.Name
	case ir.OperBadParam:
		return 0, "missing argument " + fl.Strings[a.Idx]
	}
	return 0, "unknown value kind"
}

// operandType returns the IR type of an operand. It is only called for
// operands slotOf resolved, which excludes the Bad/Func/Unknown kinds.
func (c *fnCompiler) operandType(a ir.Operand) *ir.Type {
	fl := c.fl
	switch a.Kind {
	case ir.OperConst:
		return fl.Types[fl.Consts[a.Idx].Ty]
	case ir.OperParam:
		return fl.Types[fl.ParamTypes[a.Idx]]
	case ir.OperGlobal:
		return fl.Globals[a.Idx].G.Type()
	default:
		return fl.Types[fl.Instrs[a.Idx].Ty]
	}
}

// operandElem returns the pointee type of a pointer-typed operand (nil when
// the operand is not a pointer), without materializing the pointer type.
func (c *fnCompiler) operandElem(a ir.Operand) *ir.Type {
	fl := c.fl
	switch a.Kind {
	case ir.OperConst:
		return fl.Types[fl.Consts[a.Idx].Ty].Elem
	case ir.OperParam:
		return fl.Types[fl.ParamTypes[a.Idx]].Elem
	case ir.OperGlobal:
		return fl.Types[fl.Globals[a.Idx].Elem]
	default:
		return fl.Types[fl.Instrs[a.Idx].Ty].Elem
	}
}

func (c *fnCompiler) blockLabel(b int32) string {
	return c.fl.Strings[c.fl.Blocks[b].Label]
}

func (c *fnCompiler) trapMsg(msg string) int32 {
	if i, ok := c.msgIdx[msg]; ok {
		return i
	}
	i := int32(len(c.fc.msgs))
	c.msgIdx[msg] = i
	c.fc.msgs = append(c.fc.msgs, msg)
	return i
}

func (c *fnCompiler) emit(in inst) int32 {
	pc := int32(len(c.fc.code))
	c.fc.code = append(c.fc.code, in)
	return pc
}

func (c *fnCompiler) emitTrap(msg string, cost uint8) {
	c.emit(inst{op: opTrap, cost: cost, a: c.trapMsg(msg)})
}

// branchTo records a pending edge target to be patched after stubs exist.
func (c *fnCompiler) branchTo(pc int32, field uint8, swIdx int32, pred, succ int32) {
	c.fixups = append(c.fixups, fixup{pc: pc, field: field, swIdx: swIdx, pred: pred, succ: succ})
}

// shOf returns the shift sh with which r << sh >> sh normalizes a result of
// type t to ir.Eval's width rule: 64 - bits for the integers between i1 and
// i64, which are stored sign-extended, else 0. An i1 is 0 or 1 rather than
// sign-extended, so it gets 0 too; maskI1 brings back into range the i1
// results that 0/1 operands can leave it.
func shOf(t *ir.Type) uint8 {
	if t.IsInt() && t.Bits > 1 && t.Bits < 64 {
		return uint8(64 - t.Bits)
	}
	return 0
}

func isI1(t *ir.Type) bool { return t.IsInt() && t.Bits == 1 }

// maskI1 follows an instruction whose result may leave {0, 1} even on 0/1
// operands (add, sub, shl, fptosi) with a free mask to the low bit when
// that result is an i1.
func (c *fnCompiler) maskI1(t *ir.Type, dst int32) {
	if isI1(t) {
		c.emit(inst{op: opZExt, sh: 1, dst: dst, a: dst})
	}
}

func (c *fnCompiler) compileBlock(b int32) {
	blk := &c.fl.Blocks[b]
	for i := c.fl.FirstNonPhi(b); i < blk.Ins1; i++ { // phis compile into edge stubs
		c.compileInstr(b, i)
	}
	if !c.fl.BlockHasTerm(b) {
		c.emitTrap("block "+c.blockLabel(b)+" fell through without terminator", 0)
	}
}

// operands resolves value operands to slots, compiling the instruction to
// a trap (and reporting false) if any operand cannot be evaluated — the
// same point at which the interpreter would trap.
func (c *fnCompiler) operands(args []ir.Operand) ([]int32, bool) {
	slots := make([]int32, len(args))
	for i, a := range args {
		s, msg := c.slotOf(a)
		if msg != "" {
			c.emitTrap(msg, 1)
			return nil, false
		}
		slots[i] = s
	}
	return slots, true
}

func (c *fnCompiler) compileInstr(b, i int32) {
	fl := c.fl
	irOp := fl.Op(i)
	row := &fl.Instrs[i]
	args := fl.Args(i)
	dst := c.slots[i-c.f.Ins0]

	switch {
	case irOp.IsIntBinary():
		s, ok := c.operands(args[:2])
		if !ok {
			return
		}
		ty := fl.Types[row.Ty]
		c.emit(inst{op: opAdd + op(irOp-ir.OpAdd), cost: 1, sh: shOf(ty), dst: dst, a: s[0], b: s[1]})
		if irOp == ir.OpAdd || irOp == ir.OpSub || irOp == ir.OpShl {
			c.maskI1(ty, dst)
		}
		return
	case irOp.IsFloatBinary():
		s, ok := c.operands(args[:2])
		if !ok {
			return
		}
		c.emit(inst{op: opFAdd + op(irOp-ir.OpFAdd), cost: 1, dst: dst, a: s[0], b: s[1]})
		return
	}

	switch irOp {
	case ir.OpRet:
		if len(args) == 0 {
			c.emit(inst{op: opRetVoid, cost: 1})
			return
		}
		s, ok := c.operands(args[:1])
		if !ok {
			return
		}
		c.emit(inst{op: opRet, cost: 1, a: s[0]})

	case ir.OpBr:
		blocks := fl.InstrBlockArgs(i)
		pc := c.emit(inst{op: opJmp, cost: 1})
		c.branchTo(pc, 0, 0, b, blocks[0])

	case ir.OpCondBr:
		s, ok := c.operands(args[:1])
		if !ok {
			return
		}
		blocks := fl.InstrBlockArgs(i)
		pc := c.emit(inst{op: opCondBr, cost: 1, a: s[0]})
		c.branchTo(pc, 0, 0, b, blocks[0])
		c.branchTo(pc, 1, 0, b, blocks[1])

	case ir.OpSwitch:
		s, ok := c.operands(args[:1])
		if !ok {
			return
		}
		blocks := fl.InstrBlockArgs(i)
		swVals := fl.InstrSwitchVals(i)
		base := int32(len(c.fc.swVals))
		pc := c.emit(inst{op: opSwitch, cost: 1, a: s[0], b: base, c: int32(len(swVals))})
		c.branchTo(pc, 0, 0, b, blocks[0]) // default
		for k, sv := range swVals {
			c.fc.swVals = append(c.fc.swVals, sv)
			c.fc.swPCs = append(c.fc.swPCs, 0)
			c.branchTo(pc, 2, base+int32(k), b, blocks[k+1])
		}

	case ir.OpUnreachable:
		c.emitTrap("reached unreachable in @"+c.f.Name, 1)

	case ir.OpFNeg:
		s, ok := c.operands(args[:1])
		if !ok {
			return
		}
		c.emit(inst{op: opFNeg, cost: 1, dst: dst, a: s[0]})

	case ir.OpAlloca:
		size := fl.Types[row.Aux].Size()
		if size >= 0 && size <= math.MaxInt32 {
			c.emit(inst{op: opAlloca, cost: 1, dst: dst, c: int32(size)})
			return
		}
		pi := int32(len(c.fc.ipool))
		c.fc.ipool = append(c.fc.ipool, int64(size))
		c.emit(inst{op: opAllocaP, cost: 1, dst: dst, c: pi})

	case ir.OpLoad:
		s, ok := c.operands(args[:1])
		if !ok {
			return
		}
		ty := fl.Types[row.Ty]
		c.emit(inst{op: loadOp(ty), cost: 1, dst: dst, a: s[0], c: int32(ty.Size())})

	case ir.OpStore:
		s, ok := c.operands(args[:2])
		if !ok {
			return
		}
		vt := c.operandType(args[0])
		c.emit(inst{op: storeOp(vt), cost: 1, a: s[0], b: s[1], c: int32(vt.Size())})

	case ir.OpGEP:
		c.compileGEP(args, dst)

	case ir.OpICmp:
		s, ok := c.operands(args[:2])
		if !ok {
			return
		}
		c.emit(inst{op: opIEq + op(row.Pred), cost: 1, dst: dst, a: s[0], b: s[1]})

	case ir.OpFCmp:
		s, ok := c.operands(args[:2])
		if !ok {
			return
		}
		c.emit(inst{op: fcmpOp(ir.CmpPred(row.Pred)), cost: 1, dst: dst, a: s[0], b: s[1]})

	case ir.OpSelect:
		s, ok := c.operands(args[:3])
		if !ok {
			return
		}
		base := int32(len(c.fc.extra))
		c.fc.extra = append(c.fc.extra, s[1], s[2])
		c.emit(inst{op: opSelect, cost: 1, dst: dst, a: s[0], b: base})

	case ir.OpCall:
		c.compileCall(row, args, dst)

	case ir.OpTrunc:
		s, ok := c.operands(args[:1])
		if !ok {
			return
		}
		switch ty := fl.Types[row.Ty]; {
		case isI1(ty):
			c.emit(inst{op: opZExt, cost: 1, sh: 1, dst: dst, a: s[0]})
		case shOf(ty) != 0:
			c.emit(inst{op: opTrunc, cost: 1, sh: shOf(ty), dst: dst, a: s[0]})
		default:
			c.emit(inst{op: opMov, cost: 1, dst: dst, a: s[0]})
		}

	case ir.OpZExt:
		s, ok := c.operands(args[:1])
		if !ok {
			return
		}
		// The interpreter masks whenever from.Bits < 64, including the
		// degenerate zext-from-pointer (Bits 0, so the result is 0).
		if from := c.operandType(args[0]); from.Bits < 64 {
			c.emit(inst{op: opZExt, cost: 1, sh: uint8(from.Bits), dst: dst, a: s[0]})
		} else {
			c.emit(inst{op: opMov, cost: 1, dst: dst, a: s[0]})
		}

	case ir.OpFPToSI, ir.OpFPToUI:
		s, ok := c.operands(args[:1])
		if !ok {
			return
		}
		ty := fl.Types[row.Ty]
		c.emit(inst{op: opFPToI, cost: 1, sh: shOf(ty), dst: dst, a: s[0]})
		c.maskI1(ty, dst)

	case ir.OpSIToFP:
		s, ok := c.operands(args[:1])
		if !ok {
			return
		}
		c.emit(inst{op: opSIToFP, cost: 1, dst: dst, a: s[0]})

	case ir.OpUIToFP:
		s, ok := c.operands(args[:1])
		if !ok {
			return
		}
		c.emit(inst{op: opUIToFP, cost: 1, dst: dst, a: s[0]})

	// SExt operands wider than i1 are stored sign-extended already; the
	// pointer and float width casts are value-preserving in this memory
	// model.
	case ir.OpSExt, ir.OpFPTrunc, ir.OpFPExt, ir.OpPtrToInt, ir.OpIntToPtr,
		ir.OpBitcast, ir.OpAddrSpaceCast, ir.OpFreeze:
		s, ok := c.operands(args[:1])
		if !ok {
			return
		}
		if irOp == ir.OpSExt && isI1(c.operandType(args[0])) {
			c.emit(inst{op: opTrunc, cost: 1, sh: 63, dst: dst, a: s[0]})
			return
		}
		c.emit(inst{op: opMov, cost: 1, dst: dst, a: s[0]})

	default:
		// The exotic tail (vectors, atomics, exception handling) traps at
		// execution time exactly like the interpreter's default case.
		c.emitTrap("unimplemented opcode "+irOp.String(), 1)
	}
}

func loadOp(t *ir.Type) op {
	switch {
	case t.IsFloat():
		return opLoadF
	case t.IsInt() && t.Bits == 1:
		return opLoad1
	case t.Size() == 1:
		return opLoad8
	case t.Size() == 4:
		return opLoad32
	default:
		return opLoad64
	}
}

func storeOp(t *ir.Type) op {
	switch {
	case t.IsFloat():
		return opStoreF
	case t.Size() == 1:
		return opStore8
	case t.Size() == 4:
		return opStore32
	default:
		return opStore64
	}
}

func fcmpOp(p ir.CmpPred) op {
	switch p {
	case ir.CmpEQ:
		return opFEq
	case ir.CmpNE:
		return opFNe
	case ir.CmpSLT, ir.CmpULT:
		return opFLt
	case ir.CmpSLE, ir.CmpULE:
		return opFLe
	case ir.CmpSGT, ir.CmpUGT:
		return opFGt
	default: // SGE, UGE
		return opFGe
	}
}

// gepStep is one pre-resolved index step of a fast-path GEP: either a
// constant byte offset (struct field) or a scaled dynamic index (array).
type gepStep struct {
	isOff  bool
	off    int64 // struct field offset
	scale  int64 // array element size
	argIdx int   // index into args[2:] for the dynamic case
}

// planGEP walks the element-type chain at compile time. It succeeds only
// when every step is statically decidable: arrays with any index, structs
// with an in-bounds integer-constant index. Everything else — dynamic or
// out-of-range field indices, non-aggregate element types, malformed
// types — reports !ok and the whole instruction compiles to opGEPSlow,
// which re-runs the interpreter's walk (and raises its traps) at run time.
func (c *fnCompiler) planGEP(elem *ir.Type, idxs []ir.Operand) ([]gepStep, bool) {
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
			if ix.Kind != ir.OperConst {
				return nil, false
			}
			cst := &c.fl.Consts[ix.Idx]
			if c.fl.Types[cst.Ty].IsFloat() {
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

// compileGEP decomposes address computation into scale-add steps that
// accumulate directly into the destination slot (safe: SSA operands are
// defined before the GEP, so the destination never aliases a source).
// Only the first step charges the IR instruction's step.
func (c *fnCompiler) compileGEP(args []ir.Operand, dst int32) {
	s, ok := c.operands(args)
	if !ok {
		return
	}
	elem := c.operandElem(args[0])
	plan, fast := c.planGEP(elem, args[2:])
	if !fast {
		gi := int32(len(c.fc.geps))
		c.fc.geps = append(c.fc.geps, gepRef{elem: elem, n: int32(len(args))})
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

func (c *fnCompiler) emitScaleAdd(dst, base, idx int32, scale int64, cost uint8) {
	if scale >= 0 && scale <= math.MaxInt32 {
		c.emit(inst{op: opScaleAdd, cost: cost, dst: dst, a: base, b: idx, c: int32(scale)})
		return
	}
	pi := int32(len(c.fc.ipool))
	c.fc.ipool = append(c.fc.ipool, scale)
	c.emit(inst{op: opScaleAddP, cost: cost, dst: dst, a: base, b: idx, c: pi})
}

func (c *fnCompiler) emitAddImm(dst, base int32, off int64, cost uint8) {
	if off >= 0 && off <= math.MaxInt32 {
		c.emit(inst{op: opAddImm, cost: cost, dst: dst, a: base, c: int32(off)})
		return
	}
	pi := int32(len(c.fc.ipool))
	c.fc.ipool = append(c.fc.ipool, off)
	c.emit(inst{op: opAddImmP, cost: cost, dst: dst, a: base, c: pi})
}

func (c *fnCompiler) compileCall(row *ir.FlatInstr, args []ir.Operand, dst int32) {
	s, ok := c.operands(args)
	if !ok {
		return
	}
	base := int32(len(c.fc.extra))
	c.fc.extra = append(c.fc.extra, s...)
	if row.Aux >= 0 { // direct callee (Aux < 0 means builtin, like Callee == nil)
		if idx := c.defIdx[row.Aux]; idx >= 0 {
			c.emit(inst{op: opCall, cost: 1, dst: dst, a: idx, b: base, c: int32(len(s))})
			return
		}
		// interp surfaces this as a plain returned error, not a
		// "trap:"-prefixed panic; opTrapErr preserves that shape.
		c.emit(inst{op: opTrapErr, cost: 1, a: c.trapMsg("call to declaration @" + c.fl.Funcs[row.Aux].Name)})
		return
	}
	name := c.fl.Strings[-2-row.Aux]
	bi, known := builtinIndex[name]
	if !known {
		c.emitTrap("unknown builtin "+name, 1)
		return
	}
	c.emit(inst{op: opCallB, cost: 1, dst: dst, a: bi, b: base, c: int32(len(s))})
}

// resolveEdges materializes one entry point per CFG edge: the successor's
// start when it has no phis, otherwise an out-of-line stub holding the
// edge's scheduled phi moves (cost 0), the bulk step charge, and the jump
// into the block body. Scheduling treats the moves as a parallel copy —
// every source is read before any conflicting destination is written —
// breaking cycles through the function's scratch slot, which matches the
// interpreter's evaluate-all-then-assign phi semantics with at most one
// extra (free) move per cycle.
func (c *fnCompiler) resolveEdges() {
	for _, fx := range c.fixups {
		key := edgeKey{fx.pred, fx.succ}
		if _, done := c.edgePC[key]; done {
			continue
		}
		phiEnd := c.fl.FirstNonPhi(fx.succ)
		if phiEnd == c.fl.Blocks[fx.succ].Ins0 {
			c.edgePC[key] = c.blockStart[fx.succ-c.f.Blk0]
			continue
		}
		c.edgePC[key] = c.emitEdgeStub(fx.pred, fx.succ, phiEnd)
	}
}

type move struct{ dst, src int32 }

// phiIncoming returns the incoming operand of phi p for predecessor pred.
func (c *fnCompiler) phiIncoming(p, pred int32) (ir.Operand, bool) {
	args := c.fl.Args(p)
	for k, blk := range c.fl.InstrBlockArgs(p) {
		if blk == pred && k < len(args) {
			return args[k], true
		}
	}
	return ir.Operand{}, false
}

func (c *fnCompiler) emitEdgeStub(pred, succ, phiEnd int32) int32 {
	start := int32(len(c.fc.code))
	phi0 := c.fl.Blocks[succ].Ins0
	moves := make([]move, 0, phiEnd-phi0)
	for p := phi0; p < phiEnd; p++ {
		inc, ok := c.phiIncoming(p, pred)
		if !ok {
			c.emitTrap("phi has no incoming value for edge "+c.blockLabel(pred)+"->"+c.blockLabel(succ), 0)
			return start
		}
		src, msg := c.slotOf(inc)
		if msg != "" {
			c.emitTrap(msg, 0)
			return start
		}
		d := c.slots[p-c.f.Ins0]
		if d < 0 {
			d = 0 // a result-less phi, kept only for out-of-contract IR parity
		}
		if d != src {
			moves = append(moves, move{dst: d, src: src})
		}
	}
	c.scheduleMoves(moves)
	c.emit(inst{op: opStepN, c: phiEnd - phi0})
	c.emit(inst{op: opJmp, dst: c.blockStart[succ-c.f.Blk0]})
	return start
}

// scheduleMoves sequentializes a parallel copy. Destinations are distinct
// (one per phi); sources may repeat. A move is safe once no pending move
// still reads its destination; cycles are broken by parking one
// destination's current value in the scratch slot.
func (c *fnCompiler) scheduleMoves(pending []move) {
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

func (c *fnCompiler) patch() {
	for _, fx := range c.fixups {
		target := c.edgePC[edgeKey{fx.pred, fx.succ}]
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

// A switch becomes a jump table when it has at least minTableCases cases
// and its largest case value exceeds its smallest by at most 8 per case
// plus tableSlack. The per-case factor admits fla's dispatch ids, which
// stride by 7; the slack admits small switches with a few holes.
const (
	minTableCases = 4
	tableSlack    = 16
)

// denseSwitches rewrites each opSwitch of a finished, patched function
// whose case values are dense enough into an opSwitchT over a jump table.
// A table lookup is one bounds check whatever the case count, where the
// scan costs one compare per case before the match; flattened functions
// take a switch on every block transition. Every slot starts at the
// default target, and when a value is listed twice the first case wins,
// as it does in the scan and in the interpreter. Small or sparse switches
// keep the scan.
func denseSwitches(fc *funcCode) {
	for pc := range fc.code {
		in := &fc.code[pc]
		if in.op != opSwitch || in.c < minTableCases {
			continue
		}
		vals := fc.swVals[in.b : in.b+in.c]
		targets := fc.swPCs[in.b : in.b+in.c]
		lo, hi := slices.Min(vals), slices.Max(vals)
		// The unsigned difference is exact for any lo <= hi, so a span
		// past MaxInt64 (say MinInt64 and MaxInt64 cases) compares as the
		// huge value it is instead of wrapping negative.
		if uint64(hi)-uint64(lo) > uint64(8*len(vals)+tableSlack) {
			continue
		}
		pcs := make([]int32, hi-lo+1)
		for k := range pcs {
			pcs[k] = in.dst
		}
		for k := len(vals) - 1; k >= 0; k-- {
			pcs[vals[k]-lo] = targets[k]
		}
		in.op = opSwitchT
		in.b = int32(len(fc.tabs))
		fc.tabs = append(fc.tabs, swTab{lo: lo, pcs: pcs})
	}
}
