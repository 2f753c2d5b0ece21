package ir

import "strconv"

// Instr is a single IR instruction. One struct represents all 63 opcodes;
// the auxiliary fields (Pred, Blocks, SwitchVals, Callee, Builtin, AllocaTy)
// are meaningful only for the opcodes that use them.
type Instr struct {
	Op Opcode
	// Ty is the result type; Void for instructions that produce no value.
	Ty *Type
	// Args are the value operands. Their layout per opcode:
	//   ret:    [] or [v]
	//   condbr: [cond]
	//   switch: [v]
	//   binary: [lhs, rhs]
	//   fneg:   [v]
	//   load:   [ptr]
	//   store:  [val, ptr]
	//   gep:    [base, idx...]
	//   cast:   [v]
	//   icmp:   [lhs, rhs]
	//   phi:    incoming values (parallel to Blocks)
	//   select: [cond, then, else]
	//   call:   arguments
	Args []Value
	// Blocks are the block operands:
	//   br:     [target]
	//   condbr: [then, else]
	//   switch: [default, case0, case1, ...]
	//   phi:    incoming blocks (parallel to Args)
	Blocks []*Block
	// SwitchVals are the case values of a switch, parallel to Blocks[1:].
	SwitchVals []int64
	// Pred is the comparison predicate of icmp/fcmp.
	Pred CmpPred
	// Callee is the direct call target; nil for builtin calls.
	Callee *Function
	// Builtin is the name of the runtime builtin invoked when Callee is nil.
	Builtin string
	// AllocaTy is the element type allocated by an alloca; the result type
	// is a pointer to it.
	AllocaTy *Type

	// Parent is the block containing the instruction.
	Parent *Block
	// ID is a function-unique number used for printing (%t<ID>).
	ID int
}

// Type returns the result type of the instruction.
func (in *Instr) Type() *Type {
	if in.Ty == nil {
		return Void
	}
	return in.Ty
}

// Ref returns the SSA name of the instruction's result.
func (in *Instr) Ref() string { return "%t" + strconv.Itoa(in.ID) }

// HasResult reports whether the instruction produces an SSA value.
func (in *Instr) HasResult() bool { return !in.Type().IsVoid() }

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool { return in.Op.IsTerminator() }

// Succs returns the successor blocks of a terminator, in operand order.
// It returns nil for non-terminators and for ret/unreachable.
func (in *Instr) Succs() []*Block {
	if !in.IsTerminator() {
		return nil
	}
	return in.Blocks
}

// ReplaceUses rewrites every occurrence of old in the instruction's value
// operands with new. It returns the number of replacements.
func (in *Instr) ReplaceUses(old, new Value) int {
	n := 0
	for i, a := range in.Args {
		if a == old {
			in.Args[i] = new
			n++
		}
	}
	return n
}

// PhiIncoming returns the incoming value for the given predecessor block of
// a phi instruction, or nil if b is not an incoming block.
func (in *Instr) PhiIncoming(b *Block) Value {
	for i, blk := range in.Blocks {
		if blk == b {
			return in.Args[i]
		}
	}
	return nil
}

// SetPhiIncoming sets the incoming value for predecessor b, appending a new
// edge if none exists yet.
func (in *Instr) SetPhiIncoming(b *Block, v Value) {
	for i, blk := range in.Blocks {
		if blk == b {
			in.Args[i] = v
			return
		}
	}
	in.Blocks = append(in.Blocks, b)
	in.Args = append(in.Args, v)
}

// RemovePhiIncoming deletes the phi edge coming from block b, if present.
func (in *Instr) RemovePhiIncoming(b *Block) {
	for i, blk := range in.Blocks {
		if blk == b {
			in.Blocks = append(in.Blocks[:i], in.Blocks[i+1:]...)
			in.Args = append(in.Args[:i], in.Args[i+1:]...)
			return
		}
	}
}

// RedirectTarget rewrites every occurrence of block from in the terminator's
// targets to block to.
func (in *Instr) RedirectTarget(from, to *Block) {
	for i, b := range in.Blocks {
		if b == from {
			in.Blocks[i] = to
		}
	}
}
