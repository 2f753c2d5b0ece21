package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// String renders the module in an LLVM-flavoured textual syntax. The output
// is intended for debugging and golden tests, not for re-parsing.
func (m *Module) String() string {
	var sb strings.Builder
	sb.WriteString("; module ")
	sb.WriteString(m.Name)
	sb.WriteByte('\n')
	for _, g := range m.Globals {
		sb.WriteString(g.Def())
		sb.WriteByte('\n')
	}
	for _, f := range m.Functions {
		f.writeTo(&sb)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Def renders the global's definition line.
func (g *Global) Def() string {
	kind := "global"
	if g.Const {
		kind = "constant"
	}
	init := "zeroinitializer"
	switch {
	case len(g.InitF) == 1:
		init = fmt.Sprintf("%g", g.InitF[0])
	case len(g.InitF) > 1:
		parts := make([]string, len(g.InitF))
		for i, v := range g.InitF {
			parts[i] = fmt.Sprintf("%g", v)
		}
		init = "[" + strings.Join(parts, ", ") + "]"
	case len(g.InitI) == 1:
		init = fmt.Sprintf("%d", g.InitI[0])
	case len(g.InitI) > 1:
		parts := make([]string, len(g.InitI))
		for i, v := range g.InitI {
			parts[i] = fmt.Sprintf("%d", v)
		}
		init = "[" + strings.Join(parts, ", ") + "]"
	}
	return fmt.Sprintf("@%s = %s %s %s", g.Name, kind, g.Elem, init)
}

// String renders the function with its blocks and instructions.
func (f *Function) String() string {
	var sb strings.Builder
	f.writeTo(&sb)
	return sb.String()
}

func (f *Function) writeTo(sb *strings.Builder) {
	if f.IsDecl() {
		sb.WriteString("declare ")
	} else {
		sb.WriteString("define ")
	}
	f.RetType().writeTo(sb)
	sb.WriteString(" @")
	sb.WriteString(f.Name)
	sb.WriteByte('(')
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		p.Ty.writeTo(sb)
		sb.WriteString(" %")
		sb.WriteString(p.Name)
	}
	if f.IsDecl() {
		sb.WriteString(")\n")
		return
	}
	sb.WriteString(") {\n")
	for _, b := range f.Blocks {
		writeLabel(sb, b)
		sb.WriteString(":\n")
		for _, in := range b.Instrs {
			sb.WriteString("  ")
			in.writeTo(sb)
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("}\n")
}

// String renders a single instruction.
func (in *Instr) String() string {
	var sb strings.Builder
	in.writeTo(&sb)
	return sb.String()
}

func (in *Instr) writeTo(sb *strings.Builder) {
	switch in.Op {
	case OpRet:
		if len(in.Args) == 0 {
			sb.WriteString("ret void")
			return
		}
		sb.WriteString("ret ")
		writeTypedRef(sb, in.Args[0])
	case OpBr:
		sb.WriteString("br label %")
		writeLabel(sb, in.Blocks[0])
	case OpCondBr:
		sb.WriteString("br ")
		writeTypedRef(sb, in.Args[0])
		sb.WriteString(", label %")
		writeLabel(sb, in.Blocks[0])
		sb.WriteString(", label %")
		writeLabel(sb, in.Blocks[1])
	case OpSwitch:
		sb.WriteString("switch ")
		writeTypedRef(sb, in.Args[0])
		sb.WriteString(", label %")
		writeLabel(sb, in.Blocks[0])
		sb.WriteString(" [")
		for i, v := range in.SwitchVals {
			if i > 0 {
				sb.WriteByte(' ')
			}
			writeInt(sb, v)
			sb.WriteString(": label %")
			writeLabel(sb, in.Blocks[i+1])
		}
		sb.WriteByte(']')
	case OpUnreachable:
		sb.WriteString("unreachable")
	case OpStore:
		sb.WriteString("store ")
		writeTypedRef(sb, in.Args[0])
		sb.WriteString(", ")
		writeTypedRef(sb, in.Args[1])
	case OpCall:
		name := in.Builtin
		if in.Callee != nil {
			name = in.Callee.Name
		}
		if in.HasResult() {
			writeRef(sb, in)
			sb.WriteString(" = ")
		}
		sb.WriteString("call ")
		in.Ty.writeTo(sb)
		sb.WriteString(" @")
		sb.WriteString(name)
		sb.WriteByte('(')
		writeTypedRefs(sb, in.Args)
		sb.WriteByte(')')
	default:
		writeRef(sb, in)
		sb.WriteString(" = ")
		in.writeRHS(sb)
	}
}

// writeRHS renders what follows "%tN = " for an instruction with a result.
func (in *Instr) writeRHS(sb *strings.Builder) {
	switch in.Op {
	case OpAlloca:
		sb.WriteString("alloca ")
		in.AllocaTy.writeTo(sb)
	case OpLoad:
		sb.WriteString("load ")
		in.Ty.writeTo(sb)
		sb.WriteString(", ")
		writeTypedRef(sb, in.Args[0])
	case OpGEP:
		sb.WriteString("getelementptr ")
		writeTypedRefs(sb, in.Args)
	case OpICmp, OpFCmp:
		sb.WriteString(in.Op.String())
		sb.WriteByte(' ')
		sb.WriteString(in.Pred.String())
		sb.WriteByte(' ')
		writeTypedRef(sb, in.Args[0])
		sb.WriteString(", ")
		writeRef(sb, in.Args[1])
	case OpPhi:
		sb.WriteString("phi ")
		in.Ty.writeTo(sb)
		sb.WriteByte(' ')
		for i, a := range in.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("[ ")
			writeRef(sb, a)
			sb.WriteString(", %")
			writeLabel(sb, in.Blocks[i])
			sb.WriteString(" ]")
		}
	case OpSelect:
		sb.WriteString("select ")
		writeTypedRefs(sb, in.Args[:3])
	case OpFNeg, OpFreeze:
		sb.WriteString(in.Op.String())
		sb.WriteByte(' ')
		writeTypedRef(sb, in.Args[0])
	default:
		sb.WriteString(in.Op.String())
		sb.WriteByte(' ')
		switch {
		case in.Op.IsCast():
			writeTypedRef(sb, in.Args[0])
			sb.WriteString(" to ")
			in.Ty.writeTo(sb)
		case len(in.Args) == 2:
			in.Ty.writeTo(sb)
			sb.WriteByte(' ')
			writeRef(sb, in.Args[0])
			sb.WriteString(", ")
			writeRef(sb, in.Args[1])
		default:
			writeTypedRefs(sb, in.Args)
		}
	}
}

// writeTypedRefs renders operands as "type ref" pairs joined by ", ".
func writeTypedRefs(sb *strings.Builder, vs []Value) {
	for i, v := range vs {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeTypedRef(sb, v)
	}
}

// writeTypedRef renders an operand as "type ref", or "<nil>" for a missing
// one.
func writeTypedRef(sb *strings.Builder, v Value) {
	if v == nil {
		sb.WriteString("<nil>")
		return
	}
	v.Type().writeTo(sb)
	sb.WriteByte(' ')
	writeRef(sb, v)
}

// writeRef renders v's Ref without building an intermediate string for the
// value kinds the printer meets on every line.
func writeRef(sb *strings.Builder, v Value) {
	switch v := v.(type) {
	case *Instr:
		sb.WriteString("%t")
		writeInt(sb, int64(v.ID))
	case *Const:
		var buf [32]byte
		sb.Write(v.appendRef(buf[:0]))
	case *Param:
		sb.WriteByte('%')
		sb.WriteString(v.Name)
	case *Global:
		sb.WriteByte('@')
		sb.WriteString(v.Name)
	case *Function:
		sb.WriteByte('@')
		sb.WriteString(v.Name)
	default:
		sb.WriteString(v.Ref())
	}
}

func writeLabel(sb *strings.Builder, b *Block) {
	if b.Name != "" {
		sb.WriteString(b.Name)
		return
	}
	sb.WriteByte('b')
	writeInt(sb, int64(b.ID))
}

func writeInt(sb *strings.Builder, n int64) {
	var buf [20]byte
	sb.Write(strconv.AppendInt(buf[:0], n, 10))
}
