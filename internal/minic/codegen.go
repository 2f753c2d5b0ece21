package minic

import (
	"fmt"

	"repro/internal/ir"
)

// Compile lowers a parsed MiniC file to an IR module. The generated code is
// deliberately naive — every variable lives in an alloca, every access is a
// load/store — matching what clang -O0 produces; internal/passes provides
// mem2reg and friends to clean it up.
func Compile(file *File, name string) (*ir.Module, error) {
	c := &compiler{
		mod:     ir.NewModule(name),
		fns:     make(map[string]*ir.Function),
		globals: make(map[string]*globalInfo),
		strLits: make(map[string]*ir.Global),
		structs: make(map[string]*structInfo),
		byType:  make(map[*ir.Type]*structInfo),
	}
	if err := c.declare(file); err != nil {
		return nil, err
	}
	for _, d := range file.Decls {
		fd, ok := d.(*FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if err := c.compileFunc(fd); err != nil {
			return nil, fmt.Errorf("function %s: %w", fd.Name, err)
		}
	}
	for _, f := range c.mod.Functions {
		if f.IsDecl() {
			return nil, fmt.Errorf("function %s declared but never defined", f.Name)
		}
	}
	if err := c.mod.Verify(); err != nil {
		return nil, fmt.Errorf("internal error: generated invalid IR: %w", err)
	}
	return c.mod, nil
}

// CompileSource parses and compiles MiniC source text.
func CompileSource(src, name string) (*ir.Module, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f, name)
}

type globalInfo struct {
	g    *ir.Global
	spec TypeSpec
}

type varInfo struct {
	ptr  ir.Value // pointer to the storage
	spec TypeSpec
	ty   *ir.Type // pointee type
}

type compiler struct {
	mod     *ir.Module
	fns     map[string]*ir.Function
	fnDecls map[string]*FuncDecl
	globals map[string]*globalInfo
	strLits map[string]*ir.Global
	structs map[string]*structInfo
	byType  map[*ir.Type]*structInfo
	nstr    int

	// per-function state
	fn     *ir.Function
	fd     *FuncDecl
	bd     *ir.Builder
	entry  *ir.Block
	scopes []map[string]varInfo
	breaks []*ir.Block
	conts  []*ir.Block
	nblk   int
}

// structInfo records a defined struct type: the (interned, identity-
// comparable) IR type plus the field name-to-index mapping.
type structInfo struct {
	name     string
	ty       *ir.Type
	fieldIdx map[string]int
	fields   []TypeSpec
}

// irType lowers a TypeSpec to an IR type; struct tags resolve through the
// compiler's registry.
func (c *compiler) irType(t TypeSpec) (*ir.Type, error) {
	var base *ir.Type
	switch t.Base {
	case TInt:
		base = ir.I64
	case TFloat:
		base = ir.F64
	case TChar:
		base = ir.I8
	case TStruct:
		si := c.structs[t.Struct]
		if si == nil {
			return nil, fmt.Errorf("unknown struct %q", t.Struct)
		}
		base = si.ty
	default:
		base = ir.Void
	}
	for i := 0; i < t.Ptr; i++ {
		base = ir.PtrTo(base)
	}
	for i := len(t.Dims) - 1; i >= 0; i-- {
		base = ir.ArrayOf(base, t.Dims[i])
	}
	return base, nil
}

// paramIRType lowers a parameter spec; arrays decay to pointers. Structs
// are passed by pointer only.
func (c *compiler) paramIRType(p *ParamDecl) (*ir.Type, error) {
	t, err := c.irType(p.Type)
	if err != nil {
		return nil, err
	}
	if p.Type.Base == TStruct && p.Type.Ptr == 0 && !p.Array {
		return nil, fmt.Errorf("parameter %s: structs are passed by pointer in MiniC", p.Name)
	}
	if p.Array {
		return ir.PtrTo(t), nil
	}
	return t, nil
}

// defineStruct registers a struct declaration, building its interned IR
// type. Self-references must be pointers.
func (c *compiler) defineStruct(sd *StructDecl) error {
	if c.structs[sd.Name] != nil {
		return fmt.Errorf("duplicate struct %s", sd.Name)
	}
	// Register a shell first so pointer fields may refer to the struct
	// itself (linked lists, trees).
	si := &structInfo{name: sd.Name, ty: ir.StructOf(), fieldIdx: make(map[string]int)}
	c.structs[sd.Name] = si
	c.byType[si.ty] = si
	for i, f := range sd.Fields {
		if _, dup := si.fieldIdx[f.Name]; dup {
			return fmt.Errorf("struct %s: duplicate field %s", sd.Name, f.Name)
		}
		if f.Type.Base == TStruct && f.Type.Struct == sd.Name && f.Type.Ptr == 0 {
			return fmt.Errorf("struct %s: recursive field %s must be a pointer", sd.Name, f.Name)
		}
		ft, err := c.irType(f.Type)
		if err != nil {
			return fmt.Errorf("struct %s: field %s: %w", sd.Name, f.Name, err)
		}
		if ft.IsVoid() {
			return fmt.Errorf("struct %s: field %s has void type", sd.Name, f.Name)
		}
		si.ty.Fields = append(si.ty.Fields, ft)
		si.fieldIdx[f.Name] = i
		si.fields = append(si.fields, f.Type)
	}
	if len(si.ty.Fields) == 0 {
		return fmt.Errorf("struct %s has no fields", sd.Name)
	}
	return nil
}

func (c *compiler) declare(file *File) error {
	c.fnDecls = make(map[string]*FuncDecl)
	// Struct definitions first: every later type may reference them.
	for _, d := range file.Decls {
		if sd, ok := d.(*StructDecl); ok {
			if err := c.defineStruct(sd); err != nil {
				return err
			}
		}
	}
	for _, d := range file.Decls {
		switch x := d.(type) {
		case *FuncDecl:
			if c.fns[x.Name] != nil {
				// A prototype followed by its definition is fine; two
				// bodies (or two prototypes) are duplicates.
				if prev := c.fnDecls[x.Name]; prev.Body == nil && x.Body != nil {
					c.fnDecls[x.Name] = x
					continue
				}
				return fmt.Errorf("duplicate function %s", x.Name)
			}
			names := make([]string, len(x.Params))
			types := make([]*ir.Type, len(x.Params))
			for i, p := range x.Params {
				names[i] = p.Name
				pt, err := c.paramIRType(p)
				if err != nil {
					return fmt.Errorf("function %s: %w", x.Name, err)
				}
				types[i] = pt
			}
			if x.Ret.Base == TStruct && x.Ret.Ptr == 0 {
				return fmt.Errorf("function %s: structs are returned by pointer in MiniC", x.Name)
			}
			ret, err := c.irType(x.Ret)
			if err != nil {
				return fmt.Errorf("function %s: %w", x.Name, err)
			}
			f := ir.NewFunction(x.Name, ret, names, types)
			c.mod.Add(f)
			c.fns[x.Name] = f
			c.fnDecls[x.Name] = x
		case *VarDecl:
			if err := c.declareGlobal(x); err != nil {
				return err
			}
		}
	}
	if c.fns["main"] == nil {
		return fmt.Errorf("program has no main function")
	}
	return nil
}

func (c *compiler) declareGlobal(v *VarDecl) error {
	if c.globals[v.Name] != nil {
		return fmt.Errorf("duplicate global %s", v.Name)
	}
	elem, err := c.irType(v.Type)
	if err != nil {
		return fmt.Errorf("global %s: %w", v.Name, err)
	}
	if v.Type.Base == TStruct && v.Type.Ptr == 0 && (v.Init != nil || v.Inits != nil) {
		return fmt.Errorf("global %s: struct globals are zero-initialized only", v.Name)
	}
	g := &ir.Global{Name: v.Name, Elem: elem, Const: v.Const}
	target := ir.I64
	if v.Type.Base == TFloat && v.Type.Ptr == 0 {
		target = ir.F64
	}
	for _, e := range append([]Expr{v.Init}, v.Inits...) {
		if e == nil {
			continue
		}
		k, err := c.constEval(e)
		if err != nil {
			return fmt.Errorf("global %s: %w", v.Name, err)
		}
		k = c.constConvert(k, target)
		if target.IsFloat() {
			g.InitF = append(g.InitF, k.F)
		} else {
			g.InitI = append(g.InitI, k.I)
		}
	}
	c.mod.AddGlobal(g)
	c.globals[v.Name] = &globalInfo{g: g, spec: v.Type}
	return nil
}

// constEval evaluates a global initializer at compile time. Operands
// convert as genUnary and genBinary convert them, and each operator folds
// through the IR opcode codegen emits for it (intOps, floatOps), so a global
// holds what its expression computes at run time.
func (c *compiler) constEval(e Expr) (*ir.Const, error) {
	switch x := e.(type) {
	case *IntLit, *FloatLit, *CharLit:
		v, err := c.genExpr(x)
		if err != nil {
			return nil, err
		}
		return v.(*ir.Const), nil
	case *ParenExpr:
		return c.constEval(x.X)
	case *UnaryExpr:
		v, err := c.constEval(x.X)
		if err != nil {
			return nil, err
		}
		switch {
		case x.Op == "-" && v.Ty.IsFloat():
			return ir.Fold(ir.OpFNeg, 0, ir.F64, v, nil), nil
		case x.Op == "-":
			return c.constFold(ir.OpSub, ir.ConstInt(ir.I64, 0), v)
		case x.Op == "~":
			return c.constFold(ir.OpXor, v, ir.ConstInt(ir.I64, -1))
		}
	case *BinaryExpr:
		a, err := c.constEval(x.X)
		if err != nil {
			return nil, err
		}
		b, err := c.constEval(x.Y)
		if err != nil {
			return nil, err
		}
		ops := intOps
		if a.Ty.IsFloat() || b.Ty.IsFloat() {
			ops = floatOps
		}
		if op, ok := ops[x.Op]; ok {
			return c.constFold(op, a, b)
		}
	}
	return nil, fmt.Errorf("expression is not constant")
}

// constFold folds op over a and b, both first converted to op's operand
// type (i64 or double) as genBinary would convert them.
func (c *compiler) constFold(op ir.Opcode, a, b *ir.Const) (*ir.Const, error) {
	t := ir.I64
	if op.IsFloatBinary() {
		t = ir.F64
	}
	if r := ir.Fold(op, 0, t, c.constConvert(a, t), c.constConvert(b, t)); r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("division by zero in constant")
}

// constConvert converts an integer or float constant to an integer or
// float type, which convert always folds.
func (c *compiler) constConvert(k *ir.Const, to *ir.Type) *ir.Const {
	v, _ := c.convert(k, to)
	return v.(*ir.Const)
}

func (c *compiler) compileFunc(fd *FuncDecl) error {
	c.fn = c.fns[fd.Name]
	c.fd = fd
	c.scopes = []map[string]varInfo{make(map[string]varInfo)}
	c.breaks, c.conts = nil, nil
	c.nblk = 0
	c.entry = c.fn.NewBlock("entry")
	c.bd = ir.NewBuilder(c.entry)

	// Spill parameters to allocas, as clang -O0 does; mem2reg re-promotes.
	for i, p := range fd.Params {
		ty, err := c.paramIRType(p)
		if err != nil {
			return err
		}
		slot := c.bd.Alloca(ty)
		c.bd.Store(c.fn.Params[i], slot)
		spec := p.Type
		if p.Array {
			spec.Ptr++
			spec.Dims = nil
		}
		c.scopes[0][p.Name] = varInfo{ptr: slot, spec: spec, ty: ty}
	}
	if err := c.genBlock(fd.Body); err != nil {
		return err
	}
	// Terminate any open block with an implicit return.
	if c.bd.Cur.Term() == nil {
		ret := c.fn.RetType()
		switch {
		case ret.IsVoid():
			c.bd.Ret(nil)
		case ret.IsFloat():
			c.bd.Ret(ir.ConstFloat(0))
		case ret.IsPtr():
			c.bd.Ret(ir.ConstNull(ret))
		default:
			c.bd.Ret(ir.ConstInt(ret, 0))
		}
	}
	// Close stray unreachable continuation blocks.
	for _, b := range c.fn.Blocks {
		if b.Term() == nil {
			ir.NewBuilder(b).Unreachable()
		}
	}
	c.fn.RemoveUnreachable()
	return nil
}

func (c *compiler) newBlock(hint string) *ir.Block {
	c.nblk++
	return c.fn.NewBlock(fmt.Sprintf("%s%d", hint, c.nblk))
}

func (c *compiler) pushScope() { c.scopes = append(c.scopes, make(map[string]varInfo)) }
func (c *compiler) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *compiler) lookup(name string) (varInfo, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v, ok := c.scopes[i][name]; ok {
			return v, true
		}
	}
	if g, ok := c.globals[name]; ok {
		return varInfo{ptr: g.g, spec: g.spec, ty: g.g.Elem}, true
	}
	return varInfo{}, false
}

// --- statements ---

func (c *compiler) genBlock(b *BlockStmt) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.List {
		if err := c.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

// startDeadBlock begins a fresh unreachable block so statements after a
// terminator still generate valid IR; RemoveUnreachable deletes them.
func (c *compiler) ensureOpen() {
	if c.bd.Cur.Term() != nil {
		c.bd.SetBlock(c.newBlock("dead"))
	}
}

func (c *compiler) genStmt(s Stmt) error {
	c.ensureOpen()
	switch x := s.(type) {
	case *BlockStmt:
		return c.genBlock(x)
	case *EmptyStmt:
		return nil
	case *DeclStmt:
		for _, v := range x.Vars {
			if err := c.genVarDecl(v); err != nil {
				return err
			}
		}
		return nil
	case *ExprStmt:
		_, err := c.genExpr(x.X)
		return err
	case *ReturnStmt:
		return c.genReturn(x)
	case *IfStmt:
		return c.genIf(x)
	case *WhileStmt:
		return c.genWhile(x)
	case *DoWhileStmt:
		return c.genDoWhile(x)
	case *ForStmt:
		return c.genFor(x)
	case *SwitchStmt:
		return c.genSwitch(x)
	case *BreakStmt:
		if len(c.breaks) == 0 {
			return fmt.Errorf("break outside loop or switch")
		}
		c.bd.Br(c.breaks[len(c.breaks)-1])
		return nil
	case *ContinueStmt:
		if len(c.conts) == 0 {
			return fmt.Errorf("continue outside loop")
		}
		c.bd.Br(c.conts[len(c.conts)-1])
		return nil
	}
	return fmt.Errorf("unknown statement %T", s)
}

func (c *compiler) genVarDecl(v *VarDecl) error {
	ty, err := c.irType(v.Type)
	if err != nil {
		return err
	}
	if ty.IsVoid() {
		return fmt.Errorf("variable %s has void type", v.Name)
	}
	if ty.IsStruct() && (v.Init != nil || v.Inits != nil) {
		return fmt.Errorf("variable %s: struct initializers are not supported; assign fields", v.Name)
	}
	// Allocas go in the entry block so mem2reg can promote them.
	slot := &ir.Instr{Op: ir.OpAlloca, Ty: ir.PtrTo(ty), AllocaTy: ty}
	c.entry.InsertBefore(0, slot)
	c.scopes[len(c.scopes)-1][v.Name] = varInfo{ptr: slot, spec: v.Type, ty: ty}
	switch {
	case v.Init != nil:
		val, err := c.genExpr(v.Init)
		if err != nil {
			return err
		}
		val, err = c.convert(val, ty)
		if err != nil {
			return fmt.Errorf("initializing %s: %w", v.Name, err)
		}
		c.bd.Store(val, slot)
	case v.Inits != nil:
		if !ty.IsArray() {
			return fmt.Errorf("brace initializer on non-array %s", v.Name)
		}
		// Flat row-major initializer, C style: works for multi-dimensional
		// arrays too ({1,0,0, 0,2,0, ...}).
		scalar := ty.Elem
		for scalar.IsArray() {
			scalar = scalar.Elem
		}
		for i, e := range v.Inits {
			val, err := c.genExpr(e)
			if err != nil {
				return err
			}
			val, err = c.convert(val, scalar)
			if err != nil {
				return fmt.Errorf("initializing %s[%d]: %w", v.Name, i, err)
			}
			// Build nested constant indices for element i.
			idxs := []ir.Value{ir.ConstInt(ir.I64, 0)}
			rem := int64(i)
			strides := make([]int64, len(v.Type.Dims))
			s := int64(1)
			for k := len(v.Type.Dims) - 1; k >= 0; k-- {
				strides[k] = s
				s *= int64(v.Type.Dims[k])
			}
			for k := range v.Type.Dims {
				idxs = append(idxs, ir.ConstInt(ir.I64, rem/strides[k]))
				rem %= strides[k]
			}
			p := c.bd.GEP(slot, idxs...)
			c.bd.Store(val, p)
		}
	}
	return nil
}

func (c *compiler) genReturn(r *ReturnStmt) error {
	ret := c.fn.RetType()
	if r.Val == nil {
		if !ret.IsVoid() {
			return fmt.Errorf("missing return value")
		}
		c.bd.Ret(nil)
		return nil
	}
	v, err := c.genExpr(r.Val)
	if err != nil {
		return err
	}
	v, err = c.convert(v, ret)
	if err != nil {
		return fmt.Errorf("return value: %w", err)
	}
	c.bd.Ret(v)
	return nil
}

func (c *compiler) genIf(s *IfStmt) error {
	cond, err := c.genCond(s.Cond)
	if err != nil {
		return err
	}
	then := c.newBlock("if.then")
	exit := c.newBlock("if.end")
	els := exit
	if s.Else != nil {
		els = c.newBlock("if.else")
	}
	c.bd.CondBr(cond, then, els)

	c.bd.SetBlock(then)
	if err := c.genStmt(s.Then); err != nil {
		return err
	}
	if c.bd.Cur.Term() == nil {
		c.bd.Br(exit)
	}
	if s.Else != nil {
		c.bd.SetBlock(els)
		if err := c.genStmt(s.Else); err != nil {
			return err
		}
		if c.bd.Cur.Term() == nil {
			c.bd.Br(exit)
		}
	}
	c.bd.SetBlock(exit)
	return nil
}

func (c *compiler) genWhile(s *WhileStmt) error {
	head := c.newBlock("while.cond")
	body := c.newBlock("while.body")
	exit := c.newBlock("while.end")
	c.bd.Br(head)

	c.bd.SetBlock(head)
	cond, err := c.genCond(s.Cond)
	if err != nil {
		return err
	}
	c.bd.CondBr(cond, body, exit)

	c.breaks = append(c.breaks, exit)
	c.conts = append(c.conts, head)
	c.bd.SetBlock(body)
	if err := c.genStmt(s.Body); err != nil {
		return err
	}
	if c.bd.Cur.Term() == nil {
		c.bd.Br(head)
	}
	c.breaks = c.breaks[:len(c.breaks)-1]
	c.conts = c.conts[:len(c.conts)-1]
	c.bd.SetBlock(exit)
	return nil
}

func (c *compiler) genDoWhile(s *DoWhileStmt) error {
	body := c.newBlock("do.body")
	head := c.newBlock("do.cond")
	exit := c.newBlock("do.end")
	c.bd.Br(body)

	c.breaks = append(c.breaks, exit)
	c.conts = append(c.conts, head)
	c.bd.SetBlock(body)
	if err := c.genStmt(s.Body); err != nil {
		return err
	}
	if c.bd.Cur.Term() == nil {
		c.bd.Br(head)
	}
	c.breaks = c.breaks[:len(c.breaks)-1]
	c.conts = c.conts[:len(c.conts)-1]

	c.bd.SetBlock(head)
	cond, err := c.genCond(s.Cond)
	if err != nil {
		return err
	}
	c.bd.CondBr(cond, body, exit)
	c.bd.SetBlock(exit)
	return nil
}

func (c *compiler) genFor(s *ForStmt) error {
	c.pushScope()
	defer c.popScope()
	if s.Init != nil {
		if err := c.genStmt(s.Init); err != nil {
			return err
		}
	}
	head := c.newBlock("for.cond")
	body := c.newBlock("for.body")
	post := c.newBlock("for.inc")
	exit := c.newBlock("for.end")
	c.bd.Br(head)

	c.bd.SetBlock(head)
	if s.Cond != nil {
		cond, err := c.genCond(s.Cond)
		if err != nil {
			return err
		}
		c.bd.CondBr(cond, body, exit)
	} else {
		c.bd.Br(body)
	}

	c.breaks = append(c.breaks, exit)
	c.conts = append(c.conts, post)
	c.bd.SetBlock(body)
	if err := c.genStmt(s.Body); err != nil {
		return err
	}
	if c.bd.Cur.Term() == nil {
		c.bd.Br(post)
	}
	c.breaks = c.breaks[:len(c.breaks)-1]
	c.conts = c.conts[:len(c.conts)-1]

	c.bd.SetBlock(post)
	if s.Post != nil {
		if _, err := c.genExpr(s.Post); err != nil {
			return err
		}
	}
	c.bd.Br(head)
	c.bd.SetBlock(exit)
	return nil
}

func (c *compiler) genSwitch(s *SwitchStmt) error {
	tag, err := c.genExpr(s.Tag)
	if err != nil {
		return err
	}
	tag, err = c.convert(tag, ir.I64)
	if err != nil {
		return fmt.Errorf("switch tag: %w", err)
	}
	exit := c.newBlock("sw.end")
	caseBlocks := make([]*ir.Block, len(s.Cases))
	for i := range s.Cases {
		caseBlocks[i] = c.newBlock("sw.case")
	}
	def := exit
	var vals []int64
	var dests []*ir.Block
	for i, cs := range s.Cases {
		if cs.IsDefault {
			def = caseBlocks[i]
		} else {
			vals = append(vals, cs.Val)
			dests = append(dests, caseBlocks[i])
		}
	}
	c.bd.Switch(tag, def, vals, dests)

	c.breaks = append(c.breaks, exit)
	for i, cs := range s.Cases {
		c.bd.SetBlock(caseBlocks[i])
		for _, st := range cs.Body {
			if err := c.genStmt(st); err != nil {
				return err
			}
		}
		if c.bd.Cur.Term() == nil {
			// C fallthrough into the next case, or exit from the last.
			if i+1 < len(caseBlocks) {
				c.bd.Br(caseBlocks[i+1])
			} else {
				c.bd.Br(exit)
			}
		}
	}
	c.breaks = c.breaks[:len(c.breaks)-1]
	c.bd.SetBlock(exit)
	return nil
}

// --- expressions ---

// genCond evaluates e as a branch condition (i1).
func (c *compiler) genCond(e Expr) (ir.Value, error) {
	v, err := c.genExpr(e)
	if err != nil {
		return nil, err
	}
	return c.truthy(v), nil
}

// truthy converts any scalar value to i1 by comparing against zero/null.
func (c *compiler) truthy(v ir.Value) ir.Value {
	t := v.Type()
	switch {
	case t.Equal(ir.I1):
		return v
	case t.IsFloat():
		return c.bd.FCmp(ir.CmpNE, v, ir.ConstFloat(0))
	case t.IsPtr():
		return c.bd.ICmp(ir.CmpNE, v, ir.ConstNull(t))
	default:
		return c.bd.ICmp(ir.CmpNE, v, ir.ConstInt(t, 0))
	}
}

// convert coerces v to IR type to, inserting conversions as C would. A
// constant converts at compile time, through the IR's scalar semantics.
func (c *compiler) convert(v ir.Value, to *ir.Type) (ir.Value, error) {
	from := v.Type()
	if from.Equal(to) {
		return v, nil
	}
	var op ir.Opcode
	switch {
	case from.IsInt() && to.IsInt():
		switch {
		case from.Bits == 1 && to.Bits > 1:
			op = ir.OpZExt
		case from.Bits < to.Bits:
			op = ir.OpSExt
		default:
			op = ir.OpTrunc
		}
	case from.IsInt() && to.IsFloat():
		op = ir.OpSIToFP
	case from.IsFloat() && to.IsInt():
		op = ir.OpFPToSI
	case from.IsPtr() && to.IsPtr():
		op = ir.OpBitcast
	case from.IsPtr() && to.IsInt():
		op = ir.OpPtrToInt
	case from.IsInt() && to.IsPtr():
		op = ir.OpIntToPtr
	default:
		return nil, fmt.Errorf("cannot convert %s to %s", from, to)
	}
	if cst, ok := v.(*ir.Const); ok {
		if r := ir.Fold(op, 0, to, cst, nil); r != nil {
			return r, nil
		}
	}
	return c.bd.Cast(op, v, to), nil
}

// promote applies the usual arithmetic conversions to a pair of operands.
// Pointers are rejected: implicit pointer-to-integer arithmetic would
// silently drop the element-size scaling C mandates.
func (c *compiler) promote(a, b ir.Value) (ir.Value, ir.Value, *ir.Type, error) {
	at, bt := a.Type(), b.Type()
	if at.IsPtr() || bt.IsPtr() {
		return nil, nil, nil, fmt.Errorf("arithmetic on pointer operand (%s, %s)", at, bt)
	}
	if at.IsFloat() || bt.IsFloat() {
		a2, err := c.convert(a, ir.F64)
		if err != nil {
			return nil, nil, nil, err
		}
		b2, err := c.convert(b, ir.F64)
		if err != nil {
			return nil, nil, nil, err
		}
		return a2, b2, ir.F64, nil
	}
	a2, err := c.convert(a, ir.I64)
	if err != nil {
		return nil, nil, nil, err
	}
	b2, err := c.convert(b, ir.I64)
	if err != nil {
		return nil, nil, nil, err
	}
	return a2, b2, ir.I64, nil
}

// genExpr evaluates e for its value.
func (c *compiler) genExpr(e Expr) (ir.Value, error) {
	switch x := e.(type) {
	case *IntLit:
		return ir.ConstInt(ir.I64, x.Val), nil
	case *FloatLit:
		return ir.ConstFloat(x.Val), nil
	case *CharLit:
		return ir.ConstInt(ir.I8, int64(x.Val)), nil
	case *StringLit:
		g := c.stringGlobal(x.Val)
		return c.bd.GEP(g, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, 0)), nil
	case *ParenExpr:
		return c.genExpr(x.X)
	case *Ident:
		return c.genIdentValue(x)
	case *IndexExpr:
		ptr, err := c.genAddr(x)
		if err != nil {
			return nil, err
		}
		if ptr.Type().Elem.IsArray() {
			// Indexing into an inner dimension: decay to element pointer.
			return c.bd.GEP(ptr, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, 0)), nil
		}
		if ptr.Type().Elem.IsStruct() {
			return nil, fmt.Errorf("struct element used as a value; access a member or take its address")
		}
		return c.bd.Load(ptr), nil
	case *FieldExpr:
		ptr, err := c.genAddr(x)
		if err != nil {
			return nil, err
		}
		switch {
		case ptr.Type().Elem.IsArray():
			// Array members decay to a pointer to their first element.
			return c.bd.GEP(ptr, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, 0)), nil
		case ptr.Type().Elem.IsStruct():
			return nil, fmt.Errorf("struct member %s used as a value; access its members or take its address", x.Name)
		}
		return c.bd.Load(ptr), nil
	case *UnaryExpr:
		return c.genUnary(x)
	case *IncDecExpr:
		return c.genIncDec(x)
	case *BinaryExpr:
		return c.genBinary(x)
	case *AssignExpr:
		return c.genAssign(x)
	case *CondExpr:
		return c.genCondExpr(x)
	case *CallExpr:
		return c.genCall(x)
	case *CastExpr:
		v, err := c.genExpr(x.X)
		if err != nil {
			return nil, err
		}
		to, err := c.irType(x.To)
		if err != nil {
			return nil, err
		}
		return c.convert(v, to)
	}
	return nil, fmt.Errorf("unknown expression %T", e)
}

func (c *compiler) genIdentValue(x *Ident) (ir.Value, error) {
	vi, ok := c.lookup(x.Name)
	if !ok {
		return nil, fmt.Errorf("undefined variable %s", x.Name)
	}
	if vi.ty.IsArray() {
		// Array-typed names decay to a pointer to the first element.
		return c.bd.GEP(vi.ptr, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, 0)), nil
	}
	if vi.ty.IsStruct() {
		return nil, fmt.Errorf("struct %s used as a value; access a member or take its address", x.Name)
	}
	return c.bd.Load(vi.ptr), nil
}

// genAddr computes the lvalue address of e.
func (c *compiler) genAddr(e Expr) (ir.Value, error) {
	switch x := e.(type) {
	case *ParenExpr:
		return c.genAddr(x.X)
	case *Ident:
		vi, ok := c.lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("undefined variable %s", x.Name)
		}
		return vi.ptr, nil
	case *IndexExpr:
		idx, err := c.genExpr(x.Idx)
		if err != nil {
			return nil, err
		}
		idx, err = c.convert(idx, ir.I64)
		if err != nil {
			return nil, err
		}
		// The base may itself be an array lvalue (step with a leading 0
		// index) or a pointer value (single scaled index).
		if base, err2 := c.arrayBase(x.X); err2 == nil && base != nil {
			return c.bd.GEP(base, ir.ConstInt(ir.I64, 0), idx), nil
		}
		pv, err := c.genExpr(x.X)
		if err != nil {
			return nil, err
		}
		if !pv.Type().IsPtr() {
			return nil, fmt.Errorf("indexing non-pointer value of type %s", pv.Type())
		}
		return c.bd.GEP(pv, idx), nil
	case *FieldExpr:
		var base ir.Value
		var err error
		if x.Arrow {
			base, err = c.genExpr(x.X)
		} else {
			base, err = c.genAddr(x.X)
		}
		if err != nil {
			return nil, err
		}
		if !base.Type().IsPtr() || !base.Type().Elem.IsStruct() {
			op := "."
			if x.Arrow {
				op = "->"
			}
			return nil, fmt.Errorf("%s%s on non-struct operand of type %s", op, x.Name, base.Type())
		}
		si := c.byType[base.Type().Elem]
		if si == nil {
			return nil, fmt.Errorf("internal error: unregistered struct type %s", base.Type().Elem)
		}
		idx, ok := si.fieldIdx[x.Name]
		if !ok {
			return nil, fmt.Errorf("struct %s has no field %s", si.name, x.Name)
		}
		return c.bd.GEP(base, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, int64(idx))), nil
	case *UnaryExpr:
		if x.Op == "*" {
			pv, err := c.genExpr(x.X)
			if err != nil {
				return nil, err
			}
			if !pv.Type().IsPtr() {
				return nil, fmt.Errorf("dereferencing non-pointer of type %s", pv.Type())
			}
			return pv, nil
		}
	}
	return nil, fmt.Errorf("expression is not an lvalue")
}

// arrayBase returns a pointer to an array object when e denotes one
// directly (a named array or an element of a multi-dimensional array), or
// (nil, error) when e is not an array lvalue.
func (c *compiler) arrayBase(e Expr) (ir.Value, error) {
	switch x := e.(type) {
	case *ParenExpr:
		return c.arrayBase(x.X)
	case *Ident:
		vi, ok := c.lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("undefined variable %s", x.Name)
		}
		if vi.ty.IsArray() {
			return vi.ptr, nil
		}
		return nil, fmt.Errorf("not an array")
	case *IndexExpr:
		addr, err := c.genAddr(x)
		if err != nil {
			return nil, err
		}
		if addr.Type().Elem.IsArray() {
			return addr, nil
		}
		return nil, fmt.Errorf("not an array")
	case *FieldExpr:
		addr, err := c.genAddr(x)
		if err != nil {
			return nil, err
		}
		if addr.Type().Elem.IsArray() {
			return addr, nil
		}
		return nil, fmt.Errorf("not an array")
	}
	return nil, fmt.Errorf("not an array")
}

func (c *compiler) genUnary(x *UnaryExpr) (ir.Value, error) {
	switch x.Op {
	case "&":
		return c.genAddr(x.X)
	case "*":
		ptr, err := c.genExpr(x.X)
		if err != nil {
			return nil, err
		}
		if !ptr.Type().IsPtr() {
			return nil, fmt.Errorf("dereferencing non-pointer of type %s", ptr.Type())
		}
		return c.bd.Load(ptr), nil
	case "-":
		v, err := c.genExpr(x.X)
		if err != nil {
			return nil, err
		}
		if v.Type().IsFloat() {
			return c.bd.FNeg(v), nil
		}
		v, err = c.convert(v, ir.I64)
		if err != nil {
			return nil, err
		}
		return c.bd.Sub(ir.ConstInt(ir.I64, 0), v), nil
	case "!":
		v, err := c.genExpr(x.X)
		if err != nil {
			return nil, err
		}
		b := c.truthy(v)
		return c.bd.Xor(b, ir.ConstBool(true)), nil
	case "~":
		v, err := c.genExpr(x.X)
		if err != nil {
			return nil, err
		}
		v, err = c.convert(v, ir.I64)
		if err != nil {
			return nil, err
		}
		return c.bd.Xor(v, ir.ConstInt(ir.I64, -1)), nil
	}
	return nil, fmt.Errorf("unknown unary operator %q", x.Op)
}

func (c *compiler) genIncDec(x *IncDecExpr) (ir.Value, error) {
	ptr, err := c.genAddr(x.X)
	if err != nil {
		return nil, err
	}
	old := c.bd.Load(ptr)
	var next ir.Value
	t := old.Type()
	switch {
	case t.IsFloat():
		one := ir.ConstFloat(1)
		if x.Op == "++" {
			next = c.bd.Binary(ir.OpFAdd, old, one)
		} else {
			next = c.bd.Binary(ir.OpFSub, old, one)
		}
	case t.IsPtr():
		step := int64(1)
		if x.Op == "--" {
			step = -1
		}
		next = c.bd.GEP(old, ir.ConstInt(ir.I64, step))
	default:
		one := ir.ConstInt(t, 1)
		if x.Op == "++" {
			next = c.bd.Add(old, one)
		} else {
			next = c.bd.Sub(old, one)
		}
	}
	c.bd.Store(next, ptr)
	if x.Post {
		return old, nil
	}
	return next, nil
}

var cmpOps = map[string]ir.CmpPred{
	"==": ir.CmpEQ, "!=": ir.CmpNE, "<": ir.CmpSLT, "<=": ir.CmpSLE,
	">": ir.CmpSGT, ">=": ir.CmpSGE,
}

var intOps = map[string]ir.Opcode{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul, "/": ir.OpSDiv,
	"%": ir.OpSRem, "<<": ir.OpShl, ">>": ir.OpAShr, "&": ir.OpAnd,
	"|": ir.OpOr, "^": ir.OpXor,
}

var floatOps = map[string]ir.Opcode{
	"+": ir.OpFAdd, "-": ir.OpFSub, "*": ir.OpFMul, "/": ir.OpFDiv,
	"%": ir.OpFRem,
}

func (c *compiler) genBinary(x *BinaryExpr) (ir.Value, error) {
	switch x.Op {
	case "&&", "||":
		return c.genLogical(x)
	}
	a, err := c.genExpr(x.X)
	if err != nil {
		return nil, err
	}
	b, err := c.genExpr(x.Y)
	if err != nil {
		return nil, err
	}
	if pred, ok := cmpOps[x.Op]; ok {
		return c.genCompare(pred, a, b)
	}
	// Pointer arithmetic: p + i, p - i, i + p.
	if !a.Type().IsPtr() && b.Type().IsPtr() && x.Op == "+" {
		a, b = b, a
	}
	if a.Type().IsPtr() && (x.Op == "+" || x.Op == "-") {
		b, err = c.convert(b, ir.I64)
		if err != nil {
			return nil, err
		}
		if x.Op == "-" {
			b = c.bd.Sub(ir.ConstInt(ir.I64, 0), b)
		}
		return c.bd.GEP(a, b), nil
	}
	a, b, t, err := c.promote(a, b)
	if err != nil {
		return nil, err
	}
	if t.IsFloat() {
		op, ok := floatOps[x.Op]
		if !ok {
			return nil, fmt.Errorf("operator %q not defined on float", x.Op)
		}
		return c.bd.Binary(op, a, b), nil
	}
	op, ok := intOps[x.Op]
	if !ok {
		return nil, fmt.Errorf("unknown binary operator %q", x.Op)
	}
	return c.bd.Binary(op, a, b), nil
}

func (c *compiler) genCompare(pred ir.CmpPred, a, b ir.Value) (ir.Value, error) {
	if a.Type().IsPtr() && b.Type().IsPtr() {
		return c.bd.ICmp(pred, a, b), nil
	}
	a2, b2, t, err := c.promote(a, b)
	if err != nil {
		return nil, err
	}
	if t.IsFloat() {
		return c.bd.FCmp(pred, a2, b2), nil
	}
	return c.bd.ICmp(pred, a2, b2), nil
}

// genLogical emits short-circuit && / || with control flow and a phi, the
// same shape clang emits at -O0 (after its select canonicalizations).
func (c *compiler) genLogical(x *BinaryExpr) (ir.Value, error) {
	a, err := c.genCond(x.X)
	if err != nil {
		return nil, err
	}
	lhsBlock := c.bd.Cur
	rhs := c.newBlock("land.rhs")
	merge := c.newBlock("land.end")
	if x.Op == "&&" {
		c.bd.CondBr(a, rhs, merge)
	} else {
		c.bd.CondBr(a, merge, rhs)
	}
	c.bd.SetBlock(rhs)
	b, err := c.genCond(x.Y)
	if err != nil {
		return nil, err
	}
	rhsBlock := c.bd.Cur
	c.bd.Br(merge)

	c.bd.SetBlock(merge)
	phi := c.bd.Phi(ir.I1)
	phi.SetPhiIncoming(lhsBlock, ir.ConstBool(x.Op == "||"))
	phi.SetPhiIncoming(rhsBlock, b)
	return phi, nil
}

func (c *compiler) genAssign(x *AssignExpr) (ir.Value, error) {
	ptr, err := c.genAddr(x.LHS)
	if err != nil {
		return nil, err
	}
	var val ir.Value
	if x.Op == "=" {
		val, err = c.genExpr(x.RHS)
		if err != nil {
			return nil, err
		}
	} else {
		// Compound assignment: load, apply, store.
		bin := &BinaryExpr{Op: x.Op[:len(x.Op)-1], X: x.LHS, Y: x.RHS}
		val, err = c.genBinary(bin)
		if err != nil {
			return nil, err
		}
	}
	if ptr.Type().Elem.IsStruct() {
		return nil, fmt.Errorf("whole-struct assignment is not supported; assign fields individually")
	}
	val, err = c.convert(val, ptr.Type().Elem)
	if err != nil {
		return nil, fmt.Errorf("assignment: %w", err)
	}
	c.bd.Store(val, ptr)
	return val, nil
}

func (c *compiler) genCondExpr(x *CondExpr) (ir.Value, error) {
	cond, err := c.genCond(x.Cond)
	if err != nil {
		return nil, err
	}
	then := c.newBlock("cond.then")
	els := c.newBlock("cond.else")
	merge := c.newBlock("cond.end")
	c.bd.CondBr(cond, then, els)

	c.bd.SetBlock(then)
	tv, err := c.genExpr(x.Then)
	if err != nil {
		return nil, err
	}
	thenOut := c.bd.Cur

	c.bd.SetBlock(els)
	ev, err := c.genExpr(x.Else)
	if err != nil {
		return nil, err
	}
	elsOut := c.bd.Cur

	// Unify types.
	var ty *ir.Type
	switch {
	case tv.Type().IsFloat() || ev.Type().IsFloat():
		ty = ir.F64
	case tv.Type().IsPtr():
		ty = tv.Type()
	default:
		ty = ir.I64
	}
	c.bd.SetBlock(thenOut)
	tv, err = c.convert(tv, ty)
	if err != nil {
		return nil, err
	}
	c.bd.Br(merge)
	c.bd.SetBlock(elsOut)
	ev, err = c.convert(ev, ty)
	if err != nil {
		return nil, err
	}
	c.bd.Br(merge)

	c.bd.SetBlock(merge)
	phi := c.bd.Phi(ty)
	phi.SetPhiIncoming(thenOut, tv)
	phi.SetPhiIncoming(elsOut, ev)
	return phi, nil
}

func (c *compiler) stringGlobal(s string) *ir.Global {
	if g, ok := c.strLits[s]; ok {
		return g
	}
	c.nstr++
	data := make([]int64, len(s)+1)
	for i := 0; i < len(s); i++ {
		data[i] = int64(s[i])
	}
	g := &ir.Global{
		Name:  fmt.Sprintf(".str%d", c.nstr),
		Elem:  ir.ArrayOf(ir.I8, len(s)+1),
		InitI: data,
		Const: true,
	}
	c.mod.AddGlobal(g)
	c.strLits[s] = g
	return g
}
