// Package ir implements a static single assignment (SSA) intermediate
// representation modelled on the LLVM IR. It is the substrate shared by the
// front end (internal/minic), the optimizer (internal/passes), the
// obfuscators (internal/obfus), the interpreter (internal/interp) and the
// program embeddings (internal/embed).
//
// The instruction set has exactly 63 opcodes, matching the dimensionality of
// the opcode-histogram embedding used throughout the paper ("a vector of 63
// positions counting instruction opcodes").
package ir

import "strings"

// TypeKind discriminates the kinds of IR types.
type TypeKind int

// The kinds of types supported by the IR.
const (
	VoidKind TypeKind = iota
	IntKind
	FloatKind
	PtrKind
	ArrayKind
	StructKind
	FuncKind
)

// Type describes an IR type. Types are structural: two types are
// interchangeable whenever Equal reports true. The exported singletons
// (Void, I1, ... F64) should be used for scalar types.
type Type struct {
	Kind   TypeKind
	Bits   int     // IntKind: bit width (1, 8, 32 or 64)
	Elem   *Type   // PtrKind: pointee; ArrayKind: element
	Len    int     // ArrayKind: number of elements
	Fields []*Type // StructKind: field types (packed layout, no padding)
	Params []*Type // FuncKind: parameter types
	Ret    *Type   // FuncKind: return type
}

// Scalar type singletons.
var (
	Void = &Type{Kind: VoidKind}
	I1   = &Type{Kind: IntKind, Bits: 1}
	I8   = &Type{Kind: IntKind, Bits: 8}
	I32  = &Type{Kind: IntKind, Bits: 32}
	I64  = &Type{Kind: IntKind, Bits: 64}
	F64  = &Type{Kind: FloatKind}
)

// PtrTo returns the pointer type with pointee elem.
func PtrTo(elem *Type) *Type { return &Type{Kind: PtrKind, Elem: elem} }

// ArrayOf returns the array type [n x elem].
func ArrayOf(elem *Type, n int) *Type {
	return &Type{Kind: ArrayKind, Elem: elem, Len: n}
}

// FuncOf returns the function type with the given parameters and return type.
func FuncOf(ret *Type, params ...*Type) *Type {
	return &Type{Kind: FuncKind, Ret: ret, Params: params}
}

// StructOf returns the packed struct type with the given field types.
func StructOf(fields ...*Type) *Type {
	return &Type{Kind: StructKind, Fields: fields}
}

// IsStruct reports whether t is a struct type.
func (t *Type) IsStruct() bool { return t != nil && t.Kind == StructKind }

// FieldOffset returns the byte offset of field i in a packed struct.
func (t *Type) FieldOffset(i int) int {
	off := 0
	for k := 0; k < i && k < len(t.Fields); k++ {
		off += t.Fields[k].Size()
	}
	return off
}

// IsInt reports whether t is an integer type of any width.
func (t *Type) IsInt() bool { return t != nil && t.Kind == IntKind }

// IsFloat reports whether t is the floating-point type.
func (t *Type) IsFloat() bool { return t != nil && t.Kind == FloatKind }

// IsPtr reports whether t is a pointer type.
func (t *Type) IsPtr() bool { return t != nil && t.Kind == PtrKind }

// IsVoid reports whether t is the void type.
func (t *Type) IsVoid() bool { return t == nil || t.Kind == VoidKind }

// IsArray reports whether t is an array type.
func (t *Type) IsArray() bool { return t != nil && t.Kind == ArrayKind }

// Equal reports whether t and u denote the same type structurally.
func (t *Type) Equal(u *Type) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil || t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case VoidKind, FloatKind:
		return true
	case IntKind:
		return t.Bits == u.Bits
	case PtrKind:
		return t.Elem.Equal(u.Elem)
	case ArrayKind:
		return t.Len == u.Len && t.Elem.Equal(u.Elem)
	case StructKind:
		if len(t.Fields) != len(u.Fields) {
			return false
		}
		for i := range t.Fields {
			if !t.Fields[i].Equal(u.Fields[i]) {
				return false
			}
		}
		return true
	case FuncKind:
		if !t.Ret.Equal(u.Ret) || len(t.Params) != len(u.Params) {
			return false
		}
		for i := range t.Params {
			if !t.Params[i].Equal(u.Params[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Size returns the size of a value of type t in bytes, using the memory
// layout of the IR interpreter (pointers are 8 bytes; i1 and i8 occupy one
// byte; arrays are densely packed).
func (t *Type) Size() int {
	switch t.Kind {
	case IntKind:
		switch {
		case t.Bits <= 8:
			return 1
		case t.Bits <= 32:
			return 4
		default:
			return 8
		}
	case FloatKind, PtrKind:
		return 8
	case ArrayKind:
		return t.Len * t.Elem.Size()
	case StructKind:
		n := 0
		for _, f := range t.Fields {
			n += f.Size()
		}
		return n
	default:
		return 0
	}
}

// String renders t in an LLVM-flavoured syntax.
func (t *Type) String() string {
	var sb strings.Builder
	t.writeTo(&sb)
	return sb.String()
}

// writeTo renders t into sb; a nil type is "void".
func (t *Type) writeTo(sb *strings.Builder) {
	if t == nil {
		sb.WriteString("void")
		return
	}
	switch t.Kind {
	case VoidKind:
		sb.WriteString("void")
	case IntKind:
		sb.WriteByte('i')
		writeInt(sb, int64(t.Bits))
	case FloatKind:
		sb.WriteString("double")
	case PtrKind:
		t.Elem.writeTo(sb)
		sb.WriteByte('*')
	case ArrayKind:
		sb.WriteByte('[')
		writeInt(sb, int64(t.Len))
		sb.WriteString(" x ")
		t.Elem.writeTo(sb)
		sb.WriteByte(']')
	case StructKind:
		sb.WriteByte('{')
		for i, f := range t.Fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			f.writeTo(sb)
		}
		sb.WriteByte('}')
	case FuncKind:
		t.Ret.writeTo(sb)
		sb.WriteString(" (")
		for i, p := range t.Params {
			if i > 0 {
				sb.WriteString(", ")
			}
			p.writeTo(sb)
		}
		sb.WriteByte(')')
	default:
		sb.WriteByte('?')
	}
}
