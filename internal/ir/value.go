package ir

import (
	"fmt"
	"math"
)

// Value is anything that may appear as an instruction operand: constants,
// globals, function parameters, functions (as call targets or function
// pointers) and instructions themselves.
type Value interface {
	// Type returns the type of the value.
	Type() *Type
	// Ref returns the textual reference form of the value (e.g. "%t3",
	// "@main", "42") used by the printer.
	Ref() string
}

// Const is a constant scalar value: an integer (of any width), a float, or
// the null pointer.
type Const struct {
	Ty *Type
	// I holds the integer payload for integer and pointer constants;
	// integer constants are stored sign-extended to 64 bits.
	I int64
	// F holds the payload of floating-point constants.
	F float64
}

// ConstInt returns the integer constant v of type ty, truncated/normalized
// to the width of ty.
func ConstInt(ty *Type, v int64) *Const {
	return &Const{Ty: ty, I: normalizeInt(ty, v)}
}

// ConstFloat returns the floating-point constant v.
func ConstFloat(v float64) *Const { return &Const{Ty: F64, F: v} }

// ConstNull returns the null constant of pointer type ty.
func ConstNull(ty *Type) *Const { return &Const{Ty: ty} }

// ConstBool returns the i1 constant for b.
func ConstBool(b bool) *Const {
	if b {
		return &Const{Ty: I1, I: 1}
	}
	return &Const{Ty: I1, I: 0}
}

// normalizeInt truncates v to the width of ty and sign-extends back to 64
// bits, so that all integer constants have a canonical representation.
// i1 canonicalizes to 0/1 (matching ConstBool).
func normalizeInt(ty *Type, v int64) int64 {
	if !ty.IsInt() || ty.Bits >= 64 {
		return v
	}
	if ty.Bits == 1 {
		return v & 1
	}
	shift := 64 - uint(ty.Bits)
	return v << shift >> shift
}

// Type returns the type of the constant.
func (c *Const) Type() *Type { return c.Ty }

// Ref renders the constant's payload.
func (c *Const) Ref() string {
	switch {
	case c.Ty.IsFloat():
		if c.F == math.Trunc(c.F) && math.Abs(c.F) < 1e15 {
			return fmt.Sprintf("%.1f", c.F)
		}
		return fmt.Sprintf("%g", c.F)
	case c.Ty.IsPtr():
		return "null"
	default:
		return fmt.Sprintf("%d", c.I)
	}
}

// Param is a formal parameter of a function.
type Param struct {
	Name string
	Ty   *Type
	// Index is the position of the parameter in the function signature.
	Index int
}

// Type returns the declared type of the parameter.
func (p *Param) Type() *Type { return p.Ty }

// Ref returns "%name".
func (p *Param) Ref() string { return "%" + p.Name }

// Global is a module-level variable. Its value (as an operand) is a pointer
// to the storage, mirroring LLVM semantics.
type Global struct {
	Name string
	// Elem is the pointee type of the global.
	Elem *Type
	// InitI holds the integer initializer words (one per element for array
	// globals, a single entry for scalars). Nil means zero-initialized.
	InitI []int64
	// InitF holds the float initializer values for float globals.
	InitF []float64
	// Const marks read-only globals (e.g. string literals).
	Const bool
}

// Type returns the pointer-to-Elem type of the global.
func (g *Global) Type() *Type { return PtrTo(g.Elem) }

// Ref returns "@name".
func (g *Global) Ref() string { return "@" + g.Name }
