// Package vm is the compiled execution engine for the IR: a compiler that
// lowers ir.Functions into a compact register-based bytecode and a
// dispatch-loop virtual machine that executes it. It reproduces the
// observable semantics of the tree-walking interpreter (internal/interp)
// bit-for-bit — same Result (Ret, Output, Steps), same trap classes and
// messages, same byte-arena memory model — while replacing the
// interpreter's per-operand map[*ir.Instr]Val lookups with flat frame
// arrays indexed by precomputed slots.
//
// # Bytecode format
//
// Each function compiles to a dense []inst. Every operand is a slot: an
// index into the function's flat frame array, whose layout is
//
//	[ params | instruction results | phi-cycle temp | constant pool ]
//
// The constant pool region is memcpy'd into the frame at call entry, so
// constants, global addresses and SSA values are all read with the same
// unconditional frame[slot] access — the dispatch loop never branches on
// operand kind. Branch targets are pre-resolved instruction indices, and
// every CFG edge into a block with phis jumps through an out-of-line edge
// stub holding that edge's scheduled phi moves (see compile.go). A switch
// with enough cases over a compact value range dispatches through a dense
// jump table instead of scanning its cases (see denseSwitches).
//
// # Step accounting
//
// The interpreter charges one step per executed IR instruction, before
// executing it, and one step per phi on block entry. The VM mirrors this
// exactly: each inst carries a cost flag (1 on the first inst of the group
// an IR instruction compiled to, 0 on helpers such as extra GEP index
// arithmetic or phi moves), and edge stubs charge their phi count in bulk
// with an opStepN inst. Budget traps therefore fire at the same IR
// instruction under any MaxSteps, and completed runs report bit-identical
// Steps.
package vm

import "repro/internal/ir"

// op is a VM opcode. The set is wider than ir.Opcode because opcodes are
// specialized at compile time: comparison predicates, load/store widths and
// cast shapes each get their own dispatch entry, so the hot loop does no
// secondary switching.
type op uint8

const (
	opNop op = iota

	// Control flow. Jump targets are absolute instruction indices.
	opJmp     // pc = dst
	opCondBr  // pc = regs[a].i != 0 ? dst : b
	opSwitch  // linear scan of swVals[b:b+c]; match i -> swPCs[b+i], else dst
	opSwitchT // dense table tabs[b]: pc = pcs[v-lo] if in range, else dst
	opRet     // return regs[a]
	opRetVoid // return zero val
	opStepN   // steps += c (the phi charge of one edge stub)
	opTrap    // trap with message msgs[a] ("vm: trap: " prefixed, like interp panics)
	opTrapErr // fail with plain error msgs[a] (interp returns these unprefixed,
	// e.g. "call to declaration @f")

	opMov // regs[dst] = regs[a]

	// Integer binary ops: regs[dst].i = regs[a].i OP regs[b].i, with the
	// result sign-extended through sh (64 - result bits; 0 for i64 and i1).
	opAdd
	opSub
	opMul
	opSDiv
	opUDiv
	opSRem
	opURem
	opShl
	opLShr // sh doubles as the operand width mask: mask = ^uint64(0) >> sh
	opAShr
	opAnd
	opOr
	opXor

	// Float ops.
	opFAdd
	opFSub
	opFMul
	opFDiv
	opFRem
	opFNeg

	// Integer comparisons, one per predicate (order matches ir.CmpPred).
	opIEq
	opINe
	opISlt
	opISle
	opISgt
	opISge
	opIUlt
	opIUle
	opIUgt
	opIUge

	// Float comparisons (signed/unsigned predicates fold together).
	opFEq
	opFNe
	opFLt
	opFLe
	opFGt
	opFGe

	// Memory. Loads sign-extend like the interpreter's loadScalar; stores
	// truncate like storeScalar. The bounds check (and its trap message)
	// uses the IR type's size in c, which for aggregate-typed accesses is
	// wider than the 8 bytes actually moved — exactly like checkAddr.
	opAlloca  // regs[dst].i = alloc(c)
	opAllocaP // same, size in ipool[c] (> MaxInt32 allocas)
	opLoad1   // i1: byte, sign-extend, & 1
	opLoad8   // i8: sign-extend
	opLoad32  // i32: sign-extend
	opLoad64  // i64, pointers and aggregates
	opLoadF   // f64
	opStore8  // store byte(regs[a].i) at regs[b].i
	opStore32 // store uint32 at regs[b].i
	opStore64 // store uint64 at regs[b].i
	opStoreF  // store float bits at regs[b].i

	// Address arithmetic (GEP decomposes into these when every struct
	// index is a constant; otherwise opGEPSlow interprets the whole
	// instruction, because a dynamic field index decides the element type
	// of every later step at run time).
	opScaleAdd  // regs[dst].i = regs[a].i + regs[b].i * c
	opScaleAddP // same, scale in ipool[c] (> MaxInt32 element sizes)
	opAddImm    // regs[dst].i = regs[a].i + c
	opAddImmP   // same, offset in ipool[c]
	opGEPSlow   // interpret geps[c] with operand slots extra[a:]

	// Conversions.
	opTrunc  // regs[dst].i = regs[a].i << sh >> sh
	opZExt   // regs[dst].i = regs[a].i & ((1 << sh) - 1); sh = source bits
	opFPToI  // regs[dst].i = truncSh(ir.FPToInt64(regs[a].f)) — fptosi and fptoui
	opSIToFP // regs[dst].f = float64(regs[a].i)
	opUIToFP // regs[dst].f = float64(uint64(regs[a].i))

	opSelect // regs[dst] = regs[extra[b + (regs[a].i == 0)]]

	opCall  // callee funcs[a], arg slots extra[b:b+c], result into dst (dst < 0: void)
	opCallB // builtin a, arg slots extra[b:b+c], result into dst (dst < 0: void)
)

// inst is one bytecode instruction: 20 bytes, laid out densely so the
// dispatch loop streams through cache lines.
type inst struct {
	op   op
	cost uint8 // IR steps charged before executing this inst (0 or 1)
	sh   uint8 // width shift / source bits, per-op (see opcode comments)
	dst  int32 // result slot, or jump target for control ops; -1 = none
	a    int32
	b    int32
	c    int32
}

// Builtin indices for opCallB (operand a).
const (
	bPrintI64 = iota
	bPrintF64
	bPrintI8
	bPrintStr
	bInputI64
	bInputF64
	bSqrt
	bFabs
	bSin
	bCos
	bExp
	bLog
	bFloor
	bPow
	bAbsI64
)

var builtinIndex = map[string]int32{
	"print_i64": bPrintI64, "print_f64": bPrintF64, "print_i8": bPrintI8,
	"print_str": bPrintStr, "input_i64": bInputI64, "input_f64": bInputF64,
	"sqrt": bSqrt, "fabs": bFabs, "sin": bSin, "cos": bCos, "exp": bExp,
	"log": bLog, "floor": bFloor, "pow": bPow, "abs_i64": bAbsI64,
}

// val is one frame slot: integers and pointers in i, floats in f, exactly
// like interp.Val.
type val struct {
	i int64
	f float64
}

// gepRef is the compile-time residue of one slow-path GEP: the element type
// of the base pointer and the instruction's operand count. gepSlow re-walks
// the type chain from these plus the operand slots in extra, so no pointer
// back into the IR instruction is needed.
type gepRef struct {
	elem *ir.Type
	n    int32
}

// funcCode is one compiled function.
type funcCode struct {
	name      string
	code      []inst
	nparams   int
	frameSize int   // total slots, constant region included
	constBase int   // offset of the constant region within the frame
	consts    []val // copied into frame[constBase:] at call entry

	extra  []int32  // call-argument, select and slow-GEP slot pool
	swVals []int64  // switch case values
	swPCs  []int32  // switch case targets, parallel to swVals
	tabs   []swTab  // jump tables of the switches lowered to opSwitchT
	ipool  []int64  // immediates too wide for an inst field
	msgs   []string // trap messages
	geps   []gepRef // GEPs interpreted by opGEPSlow
}

// swTab is the jump table of one opSwitchT: pcs[v-lo] is the target for
// tag v, with the default target in every slot no case names.
type swTab struct {
	lo  int64
	pcs []int32
}

// Program is a compiled module, reusable across runs: Compile once, then
// Run any number of times (each Run gets a fresh memory arena and output).
type Program struct {
	mod   *ir.Module
	funcs []*funcCode
	main  int32 // index into funcs, -1 if main is missing or a declaration
	// entry is the funcCode executed for the top-level main call. When main
	// has parameters it is a variant compiled with every parameter use
	// trapping "missing argument", because the top-level call passes no
	// arguments (interp.RunMain calls main with nil args and traps lazily
	// on first use, not eagerly).
	entry    *funcCode
	mainDecl bool // main exists but is a declaration: Run fails like interp
}
