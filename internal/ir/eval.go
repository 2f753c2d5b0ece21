package ir

import "math"

// Scalar is a dynamic value of the IR: integers and pointers in I, floats
// in F. An integer is carried in 64 bits in the representation ConstInt
// gives it: sign-extended from its width, except that an i1 is 0 or 1.
type Scalar struct {
	I int64
	F float64
}

// Eval is the IR's scalar semantics: the one definition of what integer
// and float arithmetic, fneg, icmp, fcmp and the numeric casts compute.
// The tree interpreter executes these instructions through it, the
// optimizer folds them through it (Fold), and the MiniC front end folds
// constant conversions and global initializers through it; the bytecode
// VM replicates it in specialised opcodes, held to the interpreter by
// difftest's EngineCheck.
//
// op reads a and, if it takes two operands, b; from is the operand type
// (read by the casts) and to the result type. Integer results are
// normalized to to's width. ok is false when op is not one of these
// instructions, and when it traps on these operands: integer division or
// remainder by zero. MinInt64 / -1 is defined, as MinInt64 with remainder
// 0. Shift counts are taken modulo 64. Pointer casts and freeze are moves
// in this memory model and are left to the engines.
func Eval(op Opcode, pred CmpPred, from, to *Type, a, b Scalar) (r Scalar, ok bool) {
	switch {
	case op.IsIntBinary():
		r.I, ok = intBinary(op, to, a.I, b.I)
		return r, ok
	case op.IsFloatBinary():
		return Scalar{F: floatBinary(op, a.F, b.F)}, true
	}
	switch op {
	case OpFNeg:
		r.F = -a.F
	case OpICmp:
		r.I = boolInt(icmp(pred, a.I, b.I))
	case OpFCmp:
		r.I = boolInt(fcmp(pred, a.F, b.F))
	case OpTrunc:
		r.I = normalizeInt(to, a.I)
	case OpZExt:
		// Masking whenever from is narrower than 64 bits zero-extends
		// integers and sends the degenerate zext-from-pointer (Bits 0) to 0.
		r.I = a.I
		if from.Bits < 64 {
			r.I &= int64(1)<<uint(from.Bits) - 1
		}
	case OpSExt:
		// Only an i1 changes: every wider integer is already stored
		// sign-extended.
		r.I = a.I
		if from.IsInt() && from.Bits == 1 {
			r.I = -(a.I & 1)
		}
	case OpFPToSI, OpFPToUI:
		r.I = normalizeInt(to, FPToInt64(a.F))
	case OpSIToFP:
		r.F = float64(a.I)
	case OpUIToFP:
		r.F = float64(uint64(a.I))
	case OpFPTrunc, OpFPExt:
		r.F = a.F
	default:
		return r, false
	}
	return r, true
}

// Fold evaluates op over constant operands (b is nil for one-operand ops)
// and returns the result as a constant of type to, or nil where Eval
// reports not-ok, so a trapping instruction stays in the program.
func Fold(op Opcode, pred CmpPred, to *Type, a, b *Const) *Const {
	var bv Scalar
	if b != nil {
		bv = Scalar{I: b.I, F: b.F}
	}
	r, ok := Eval(op, pred, a.Ty, to, Scalar{I: a.I, F: a.F}, bv)
	switch {
	case !ok:
		return nil
	case to.IsFloat():
		return ConstFloat(r.F)
	}
	return ConstInt(to, r.I)
}

// FPToInt64 is the defined float-to-integer conversion of the IR: NaN and
// ±Inf convert to 0 (the historical carve-out), and finite values outside
// the int64 range saturate to MinInt64/MaxInt64. Go's own int64(f) is
// implementation-dependent for out-of-range values (amd64 yields MinInt64,
// arm64 saturates, 386 yields 0), which would make the fuzz oracle and
// the Figure-13 step counts architecture-dependent; pinning saturation here
// keeps every engine and every architecture bit-identical.
func FPToInt64(f float64) int64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	// math.MaxInt64 as a float64 constant rounds up to 2^63, so >= catches
	// exactly the values that overflow; -2^63 itself is representable.
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	if f < math.MinInt64 {
		return math.MinInt64
	}
	return int64(f)
}

func intBinary(op Opcode, ty *Type, a, b int64) (int64, bool) {
	var r int64
	switch op {
	case OpAdd:
		r = a + b
	case OpSub:
		r = a - b
	case OpMul:
		r = a * b
	case OpSDiv, OpUDiv, OpSRem, OpURem:
		if b == 0 {
			return 0, false
		}
		// Go defines MinInt64 / -1 as MinInt64 and MinInt64 % -1 as 0.
		switch op {
		case OpSDiv:
			r = a / b
		case OpUDiv:
			r = int64(uint64(a) / uint64(b))
		case OpSRem:
			r = a % b
		default:
			r = int64(uint64(a) % uint64(b))
		}
	case OpShl:
		r = a << (uint64(b) & 63)
	case OpLShr:
		// The operand's bits above its width are sign copies; clear them
		// so zeros shift in at the type's own top bit.
		ua := uint64(a)
		if ty.IsInt() && ty.Bits < 64 {
			ua &= 1<<uint(ty.Bits) - 1
		}
		r = int64(ua >> (uint64(b) & 63))
	case OpAShr:
		r = a >> (uint64(b) & 63)
	case OpAnd:
		r = a & b
	case OpOr:
		r = a | b
	case OpXor:
		r = a ^ b
	}
	return normalizeInt(ty, r), true
}

func floatBinary(op Opcode, a, b float64) float64 {
	switch op {
	case OpFAdd:
		return a + b
	case OpFSub:
		return a - b
	case OpFMul:
		return a * b
	case OpFDiv:
		return a / b
	}
	return math.Mod(a, b)
}

// icmp compares stored values, so an i1 orders 0 < 1 under the signed
// predicates too.
func icmp(p CmpPred, a, b int64) bool {
	switch p {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpSLT:
		return a < b
	case CmpSLE:
		return a <= b
	case CmpSGT:
		return a > b
	case CmpSGE:
		return a >= b
	case CmpULT:
		return uint64(a) < uint64(b)
	case CmpULE:
		return uint64(a) <= uint64(b)
	case CmpUGT:
		return uint64(a) > uint64(b)
	case CmpUGE:
		return uint64(a) >= uint64(b)
	}
	return false
}

// fcmp reads the signed and unsigned predicates alike; every comparison
// with a NaN is false except ne.
func fcmp(p CmpPred, a, b float64) bool {
	switch p {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpSLT, CmpULT:
		return a < b
	case CmpSLE, CmpULE:
		return a <= b
	case CmpSGT, CmpUGT:
		return a > b
	case CmpSGE, CmpUGE:
		return a >= b
	}
	return false
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
