package minic

// BaseType is a MiniC scalar base type.
type BaseType int

// The scalar base types of MiniC.
const (
	TVoid   BaseType = iota
	TInt             // 64-bit signed integer
	TFloat           // 64-bit floating point ("float" and "double" both map here)
	TChar            // 8-bit signed integer
	TStruct          // named struct; TypeSpec.Struct holds the tag
)

func (b BaseType) String() string {
	switch b {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TChar:
		return "char"
	case TStruct:
		return "struct"
	default:
		return "void"
	}
}

// TypeSpec is a declared MiniC type: a base type plus pointer depth and
// optional array dimensions ("int **p", "float m[8][8]", "struct pt *p").
type TypeSpec struct {
	Base   BaseType
	Struct string // struct tag when Base == TStruct
	Ptr    int    // pointer indirections
	Dims   []int  // array dimensions, outermost first; empty for scalars
}

// IsArray reports whether the spec declares an array.
func (t TypeSpec) IsArray() bool { return len(t.Dims) > 0 }

// File is a parsed translation unit.
type File struct {
	Decls []Decl
}

// Decl is a top-level declaration.
type Decl interface{ decl() }

// StructDecl defines a struct type: "struct Name { fields };".
type StructDecl struct {
	Name   string
	Fields []*VarDecl // Init/Inits unused; Dims allowed (member arrays)
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Ret    TypeSpec
	Params []*ParamDecl
	Body   *BlockStmt
}

// ParamDecl is a formal parameter. Array parameters decay to pointers.
type ParamDecl struct {
	Name  string
	Type  TypeSpec
	Array bool // declared with [] suffix
}

// VarDecl declares one variable, optionally initialized. At the top level
// it declares a global.
type VarDecl struct {
	Name  string
	Type  TypeSpec
	Init  Expr   // scalar initializer, may be nil
	Inits []Expr // array initializer list, may be nil
	Const bool
}

func (*FuncDecl) decl()   {}
func (*VarDecl) decl()    {}
func (*StructDecl) decl() {}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// BlockStmt is a braced statement list.
type BlockStmt struct{ List []Stmt }

// DeclStmt wraps local variable declarations.
type DeclStmt struct{ Vars []*VarDecl }

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body Stmt
}

// DoWhileStmt is a do { } while loop.
type DoWhileStmt struct {
	Body Stmt
	Cond Expr
}

// ForStmt is a C for loop. Init may be a DeclStmt or ExprStmt; any of the
// three clauses may be nil.
type ForStmt struct {
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// SwitchCase is one case (or default when IsDefault) of a switch.
type SwitchCase struct {
	Val       int64
	IsDefault bool
	Body      []Stmt
}

// SwitchStmt is a C switch with fallthrough semantics.
type SwitchStmt struct {
	Tag   Expr
	Cases []*SwitchCase
}

// BreakStmt breaks the innermost loop or switch.
type BreakStmt struct{}

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{}

// ReturnStmt returns from the function; Val may be nil.
type ReturnStmt struct{ Val Expr }

// ExprStmt evaluates an expression for effect.
type ExprStmt struct{ X Expr }

// EmptyStmt is a bare semicolon.
type EmptyStmt struct{}

func (*BlockStmt) stmt()    {}
func (*DeclStmt) stmt()     {}
func (*IfStmt) stmt()       {}
func (*WhileStmt) stmt()    {}
func (*DoWhileStmt) stmt()  {}
func (*ForStmt) stmt()      {}
func (*SwitchStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*ReturnStmt) stmt()   {}
func (*ExprStmt) stmt()     {}
func (*EmptyStmt) stmt()    {}

// Expr is an expression node.
type Expr interface{ expr() }

// Ident references a variable.
type Ident struct{ Name string }

// IntLit is an integer literal.
type IntLit struct{ Val int64 }

// FloatLit is a floating-point literal.
type FloatLit struct{ Val float64 }

// CharLit is a character literal.
type CharLit struct{ Val byte }

// StringLit is a string literal.
type StringLit struct{ Val string }

// BinaryExpr applies a binary operator: + - * / % << >> < <= > >= == !=
// & | ^ && ||.
type BinaryExpr struct {
	Op   string
	X, Y Expr
}

// UnaryExpr applies a prefix operator: - ! ~ * & ++ --.
type UnaryExpr struct {
	Op string
	X  Expr
}

// IncDecExpr is x++ / x-- / ++x / --x.
type IncDecExpr struct {
	X    Expr
	Op   string // "++" or "--"
	Post bool
}

// AssignExpr is an assignment; Op is "=", "+=", "-=", "*=", "/=", "%=",
// "&=", "|=", "^=", "<<=" or ">>=".
type AssignExpr struct {
	Op  string
	LHS Expr
	RHS Expr
}

// CondExpr is the ternary operator.
type CondExpr struct {
	Cond Expr
	Then Expr
	Else Expr
}

// CallExpr calls a named function or builtin.
type CallExpr struct {
	Name string
	Args []Expr
}

// IndexExpr is array indexing x[i].
type IndexExpr struct {
	X   Expr
	Idx Expr
}

// FieldExpr is struct member access: x.name, or x->name when Arrow.
type FieldExpr struct {
	X     Expr
	Name  string
	Arrow bool
}

// CastExpr is an explicit cast (int)x, (float)x, (char)x.
type CastExpr struct {
	To TypeSpec
	X  Expr
}

// ParenExpr preserves explicit parentheses (kept so the source printer
// round-trips faithfully; codegen ignores it).
type ParenExpr struct{ X Expr }

func (*Ident) expr()      {}
func (*IntLit) expr()     {}
func (*FloatLit) expr()   {}
func (*CharLit) expr()    {}
func (*StringLit) expr()  {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*IncDecExpr) expr() {}
func (*AssignExpr) expr() {}
func (*CondExpr) expr()   {}
func (*CallExpr) expr()   {}
func (*IndexExpr) expr()  {}
func (*FieldExpr) expr()  {}
func (*CastExpr) expr()   {}
func (*ParenExpr) expr()  {}
