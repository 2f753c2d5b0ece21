package minic

import (
	"fmt"
	"strings"
)

// Print renders the AST back to MiniC source. Output parses back to an
// equivalent AST (modulo ParenExpr insertion), which the srcobf round-trip
// tests rely on.
func Print(f *File) string {
	var pr printer
	for _, d := range f.Decls {
		pr.decl(d)
	}
	return pr.sb.String()
}

// PrintExpr renders one expression.
func PrintExpr(e Expr) string {
	var pr printer
	pr.expr(e, 0)
	return pr.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) line(format string, args ...interface{}) {
	p.sb.WriteString(strings.Repeat("  ", p.indent))
	fmt.Fprintf(&p.sb, format, args...)
	p.sb.WriteByte('\n')
}

func (p *printer) typeStr(t TypeSpec) string {
	base := t.Base.String()
	if t.Base == TStruct {
		base = "struct " + t.Struct
	}
	return base + strings.Repeat("*", t.Ptr)
}

func (p *printer) dims(t TypeSpec) string {
	var sb strings.Builder
	for _, d := range t.Dims {
		fmt.Fprintf(&sb, "[%d]", d)
	}
	return sb.String()
}

func (p *printer) decl(d Decl) {
	switch x := d.(type) {
	case *StructDecl:
		p.line("struct %s {", x.Name)
		p.indent++
		for _, f := range x.Fields {
			p.line("%s;", p.varDeclStr(f))
		}
		p.indent--
		p.line("};")
	case *VarDecl:
		p.line("%s;", p.varDeclStr(x))
	case *FuncDecl:
		params := make([]string, len(x.Params))
		for i, pd := range x.Params {
			s := p.typeStr(pd.Type) + " " + pd.Name
			if pd.Array {
				s += "[]" + p.dims(pd.Type)
			}
			params[i] = s
		}
		if x.Body == nil {
			p.line("%s %s(%s);", p.typeStr(x.Ret), x.Name, strings.Join(params, ", "))
			return
		}
		p.line("%s %s(%s) {", p.typeStr(x.Ret), x.Name, strings.Join(params, ", "))
		p.indent++
		for _, s := range x.Body.List {
			p.stmt(s)
		}
		p.indent--
		p.line("}")
	}
}

func (p *printer) varDeclStr(v *VarDecl) string {
	s := ""
	if v.Const {
		s += "const "
	}
	s += p.typeStr(v.Type) + " " + v.Name + p.dims(v.Type)
	if v.Init != nil {
		s += " = " + PrintExpr(v.Init)
	} else if v.Inits != nil {
		parts := make([]string, len(v.Inits))
		for i, e := range v.Inits {
			parts[i] = PrintExpr(e)
		}
		s += " = {" + strings.Join(parts, ", ") + "}"
	}
	return s
}

func (p *printer) stmt(s Stmt) {
	switch x := s.(type) {
	case *BlockStmt:
		p.line("{")
		p.indent++
		for _, st := range x.List {
			p.stmt(st)
		}
		p.indent--
		p.line("}")
	case *DeclStmt:
		for _, v := range x.Vars {
			p.line("%s;", p.varDeclStr(v))
		}
	case *IfStmt:
		p.line("if (%s)", PrintExpr(x.Cond))
		p.nested(x.Then)
		if x.Else != nil {
			p.line("else")
			p.nested(x.Else)
		}
	case *WhileStmt:
		p.line("while (%s)", PrintExpr(x.Cond))
		p.nested(x.Body)
	case *DoWhileStmt:
		p.line("do")
		p.nested(x.Body)
		p.line("while (%s);", PrintExpr(x.Cond))
	case *ForStmt:
		init := ""
		switch i := x.Init.(type) {
		case *DeclStmt:
			parts := make([]string, len(i.Vars))
			for k, v := range i.Vars {
				parts[k] = p.varDeclStr(v)
			}
			init = strings.Join(parts, ", ")
			// Re-printing multi-decl for-inits as comma-joined works because
			// MiniC for-init decls share one base type.
			if len(i.Vars) > 1 {
				first := p.typeStr(i.Vars[0].Type) + " "
				for k := 1; k < len(parts); k++ {
					parts[k] = strings.TrimPrefix(parts[k], first)
				}
				init = strings.Join(parts, ", ")
			}
		case *ExprStmt:
			init = PrintExpr(i.X)
		}
		cond, post := "", ""
		if x.Cond != nil {
			cond = PrintExpr(x.Cond)
		}
		if x.Post != nil {
			post = PrintExpr(x.Post)
		}
		p.line("for (%s; %s; %s)", init, cond, post)
		p.nested(x.Body)
	case *SwitchStmt:
		p.line("switch (%s) {", PrintExpr(x.Tag))
		for _, c := range x.Cases {
			if c.IsDefault {
				p.line("default:")
			} else {
				p.line("case %d:", c.Val)
			}
			p.indent++
			for _, st := range c.Body {
				p.stmt(st)
			}
			p.indent--
		}
		p.line("}")
	case *BreakStmt:
		p.line("break;")
	case *ContinueStmt:
		p.line("continue;")
	case *ReturnStmt:
		if x.Val == nil {
			p.line("return;")
		} else {
			p.line("return %s;", PrintExpr(x.Val))
		}
	case *ExprStmt:
		p.line("%s;", PrintExpr(x.X))
	case *EmptyStmt:
		p.line(";")
	}
}

// nested prints a statement in a position where C allows a bare statement;
// non-blocks are wrapped in braces so re-parsing is unambiguous.
func (p *printer) nested(s Stmt) {
	if b, ok := s.(*BlockStmt); ok {
		p.stmt(b)
		return
	}
	p.line("{")
	p.indent++
	p.stmt(s)
	p.indent--
	p.line("}")
}

func (p *printer) expr(e Expr, prec int) {
	p.sb.WriteString(exprString(e))
}

func exprString(e Expr) string {
	switch x := e.(type) {
	case *Ident:
		return x.Name
	case *IntLit:
		return fmt.Sprintf("%d", x.Val)
	case *FloatLit:
		s := fmt.Sprintf("%g", x.Val)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *CharLit:
		switch x.Val {
		case '\n':
			return `'\n'`
		case '\t':
			return `'\t'`
		case '\'':
			return `'\''`
		case '\\':
			return `'\\'`
		case 0:
			return `'\0'`
		}
		return "'" + string(x.Val) + "'"
	case *StringLit:
		s := x.Val
		s = strings.ReplaceAll(s, `\`, `\\`)
		s = strings.ReplaceAll(s, `"`, `\"`)
		s = strings.ReplaceAll(s, "\n", `\n`)
		s = strings.ReplaceAll(s, "\t", `\t`)
		return `"` + s + `"`
	case *BinaryExpr:
		return "(" + exprString(x.X) + " " + x.Op + " " + exprString(x.Y) + ")"
	case *UnaryExpr:
		return "(" + x.Op + exprString(x.X) + ")"
	case *IncDecExpr:
		if x.Post {
			return exprString(x.X) + x.Op
		}
		return x.Op + exprString(x.X)
	case *AssignExpr:
		return exprString(x.LHS) + " " + x.Op + " " + exprString(x.RHS)
	case *CondExpr:
		return "(" + exprString(x.Cond) + " ? " + exprString(x.Then) + " : " + exprString(x.Else) + ")"
	case *CallExpr:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = exprString(a)
		}
		return x.Name + "(" + strings.Join(parts, ", ") + ")"
	case *IndexExpr:
		return exprString(x.X) + "[" + exprString(x.Idx) + "]"
	case *FieldExpr:
		if x.Arrow {
			return exprString(x.X) + "->" + x.Name
		}
		return exprString(x.X) + "." + x.Name
	case *CastExpr:
		base := x.To.Base.String()
		if x.To.Base == TStruct {
			base = "struct " + x.To.Struct
		}
		return "((" + base + strings.Repeat("*", x.To.Ptr) + ")" + exprString(x.X) + ")"
	case *ParenExpr:
		// Self-parenthesizing children already print their own parens, so
		// skipping the redundant pair keeps Print ∘ Parse idempotent.
		switch x.X.(type) {
		case *BinaryExpr, *UnaryExpr, *CondExpr, *ParenExpr, *CastExpr:
			return exprString(x.X)
		}
		return "(" + exprString(x.X) + ")"
	}
	return "?"
}
