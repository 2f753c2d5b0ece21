package ir

import "fmt"

// Builder appends instructions to a current block, inferring result types.
// It is the construction API used by the front end and by the
// transformation passes when they synthesize new code.
type Builder struct {
	Fn  *Function
	Cur *Block
}

// NewBuilder returns a builder positioned at block b.
func NewBuilder(b *Block) *Builder { return &Builder{Fn: b.Fn, Cur: b} }

// SetBlock repositions the builder at block b.
func (bd *Builder) SetBlock(b *Block) { bd.Cur = b }

func (bd *Builder) emit(in *Instr) *Instr { return bd.Cur.Append(in) }

// The fixed-arity constructors allocate an instruction together with its
// operand array, one allocation instead of two (branches add their block
// array to the same allocation). Args spans the whole array, so
// len(Args) == cap(Args) as for a slice literal.

func with1(in Instr, a Value) *Instr {
	x := &struct {
		Instr
		ops [1]Value
	}{in, [1]Value{a}}
	x.Args = x.ops[:]
	return &x.Instr
}

func with2(in Instr, a, b Value) *Instr {
	x := &struct {
		Instr
		ops [2]Value
	}{in, [2]Value{a, b}}
	x.Args = x.ops[:]
	return &x.Instr
}

func with3(in Instr, a, b, c Value) *Instr {
	x := &struct {
		Instr
		ops [3]Value
	}{in, [3]Value{a, b, c}}
	x.Args = x.ops[:]
	return &x.Instr
}

// Binary emits a two-operand arithmetic/bitwise instruction. The result
// type is the type of the left operand.
func (bd *Builder) Binary(op Opcode, lhs, rhs Value) *Instr {
	return bd.emit(with2(Instr{Op: op, Ty: lhs.Type()}, lhs, rhs))
}

// Add emits an integer add.
func (bd *Builder) Add(a, b Value) *Instr { return bd.Binary(OpAdd, a, b) }

// Sub emits an integer sub.
func (bd *Builder) Sub(a, b Value) *Instr { return bd.Binary(OpSub, a, b) }

// Mul emits an integer mul.
func (bd *Builder) Mul(a, b Value) *Instr { return bd.Binary(OpMul, a, b) }

// And emits a bitwise and.
func (bd *Builder) And(a, b Value) *Instr { return bd.Binary(OpAnd, a, b) }

// Or emits a bitwise or.
func (bd *Builder) Or(a, b Value) *Instr { return bd.Binary(OpOr, a, b) }

// Xor emits a bitwise xor.
func (bd *Builder) Xor(a, b Value) *Instr { return bd.Binary(OpXor, a, b) }

// FNeg emits a floating-point negation.
func (bd *Builder) FNeg(v Value) *Instr {
	return bd.emit(with1(Instr{Op: OpFNeg, Ty: v.Type()}, v))
}

// ICmp emits an integer comparison producing an i1.
func (bd *Builder) ICmp(pred CmpPred, a, b Value) *Instr {
	return bd.emit(with2(Instr{Op: OpICmp, Ty: I1, Pred: pred}, a, b))
}

// FCmp emits a floating-point comparison producing an i1.
func (bd *Builder) FCmp(pred CmpPred, a, b Value) *Instr {
	return bd.emit(with2(Instr{Op: OpFCmp, Ty: I1, Pred: pred}, a, b))
}

// Alloca emits a stack allocation of elem, producing an elem*.
func (bd *Builder) Alloca(elem *Type) *Instr {
	return bd.emit(&Instr{Op: OpAlloca, Ty: PtrTo(elem), AllocaTy: elem})
}

// Load emits a load through ptr.
func (bd *Builder) Load(ptr Value) *Instr {
	et := ptr.Type().Elem
	if et == nil {
		panic(fmt.Sprintf("ir: load from non-pointer %s", ptr.Type()))
	}
	return bd.emit(with1(Instr{Op: OpLoad, Ty: et}, ptr))
}

// Store emits a store of val through ptr.
func (bd *Builder) Store(val, ptr Value) *Instr {
	return bd.emit(with2(Instr{Op: OpStore, Ty: Void}, val, ptr))
}

// GEP emits an address computation. Semantics follow LLVM: the first index
// scales by the size of the pointee; each further index steps into an array
// element or (with a constant index) a struct field. The result type is a
// pointer to the indexed element.
func (bd *Builder) GEP(base Value, idxs ...Value) *Instr {
	ty := base.Type()
	if !ty.IsPtr() {
		panic(fmt.Sprintf("ir: gep on non-pointer %s", ty))
	}
	elem := ty.Elem
	for _, idx := range idxs[1:] {
		switch {
		case elem.IsArray():
			elem = elem.Elem
		case elem.IsStruct():
			c, ok := idx.(*Const)
			if !ok || c.I < 0 || int(c.I) >= len(elem.Fields) {
				panic(fmt.Sprintf("ir: gep struct index must be a constant in range, got %v into %s", idx, elem))
			}
			elem = elem.Fields[c.I]
		default:
			panic(fmt.Sprintf("ir: gep steps into non-aggregate %s", elem))
		}
	}
	in := Instr{Op: OpGEP, Ty: PtrTo(elem)}
	switch len(idxs) {
	case 1:
		return bd.emit(with2(in, base, idxs[0]))
	case 2:
		return bd.emit(with3(in, base, idxs[0], idxs[1]))
	}
	return bd.emit(&Instr{Op: OpGEP, Ty: in.Ty, Args: append([]Value{base}, idxs...)})
}

// Cast emits a conversion of v to type to using opcode op.
func (bd *Builder) Cast(op Opcode, v Value, to *Type) *Instr {
	return bd.emit(with1(Instr{Op: op, Ty: to}, v))
}

// Select emits cond ? a : b.
func (bd *Builder) Select(cond, a, b Value) *Instr {
	return bd.emit(with3(Instr{Op: OpSelect, Ty: a.Type()}, cond, a, b))
}

// Phi emits an empty phi of type ty at the head of the current block;
// incoming edges are added with SetPhiIncoming.
func (bd *Builder) Phi(ty *Type) *Instr {
	in := &Instr{Op: OpPhi, Ty: ty}
	in.Parent = bd.Cur
	in.ID = bd.Fn.nextID()
	bd.Cur.InsertBefore(bd.Cur.FirstNonPhi(), in)
	return in
}

// Call emits a direct call to callee.
func (bd *Builder) Call(callee *Function, args ...Value) *Instr {
	return bd.emit(&Instr{Op: OpCall, Ty: callee.RetType(), Callee: callee, Args: args})
}

// CallBuiltin emits a call to a named runtime builtin with result type ret.
func (bd *Builder) CallBuiltin(name string, ret *Type, args ...Value) *Instr {
	return bd.emit(&Instr{Op: OpCall, Ty: ret, Builtin: name, Args: args})
}

// Br emits an unconditional branch to target.
func (bd *Builder) Br(target *Block) *Instr {
	x := &struct {
		Instr
		blks [1]*Block
	}{Instr{Op: OpBr, Ty: Void}, [1]*Block{target}}
	x.Blocks = x.blks[:]
	return bd.emit(&x.Instr)
}

// CondBr emits a conditional branch on cond.
func (bd *Builder) CondBr(cond Value, then, els *Block) *Instr {
	x := &struct {
		Instr
		ops  [1]Value
		blks [2]*Block
	}{Instr{Op: OpCondBr, Ty: Void}, [1]Value{cond}, [2]*Block{then, els}}
	x.Args, x.Blocks = x.ops[:], x.blks[:]
	return bd.emit(&x.Instr)
}

// Switch emits a switch on v with the given default and cases.
func (bd *Builder) Switch(v Value, def *Block, vals []int64, dests []*Block) *Instr {
	blocks := append([]*Block{def}, dests...)
	return bd.emit(&Instr{Op: OpSwitch, Ty: Void, Args: []Value{v}, Blocks: blocks, SwitchVals: vals})
}

// Ret emits a return; v may be nil for void functions.
func (bd *Builder) Ret(v Value) *Instr {
	if v == nil {
		return bd.emit(&Instr{Op: OpRet, Ty: Void})
	}
	return bd.emit(with1(Instr{Op: OpRet, Ty: Void}, v))
}

// Unreachable emits an unreachable terminator.
func (bd *Builder) Unreachable() *Instr {
	return bd.emit(&Instr{Op: OpUnreachable, Ty: Void})
}
