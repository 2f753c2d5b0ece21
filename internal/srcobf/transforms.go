package srcobf

import (
	"fmt"
	"math/rand"

	"repro/internal/minic"
)

// Transform is one of the fifteen semantics-preserving source rewrites.
// Apply mutates f in place and reports whether it changed anything.
type Transform struct {
	Name  string
	Apply func(f *minic.File, rng *rand.Rand) bool
}

// transforms is the catalogue behind Transforms, built once: replay looks
// a transform up by name for every step it applies.
var transforms = []Transform{
	{"for2while", tfFor2While},
	{"while2for", tfWhile2For},
	{"while2dowhile", tfWhile2DoWhile},
	{"if_negate", tfIfNegate},
	{"switch2if", tfSwitch2If},
	{"const_unfold", tfConstUnfold},
	{"dead_var", tfDeadVar},
	{"dead_if", tfDeadIf},
	{"commute", tfCommute},
	{"cmp_flip", tfCmpFlip},
	{"incdec2compound", tfIncDec2Compound},
	{"compound2plain", tfCompound2Plain},
	{"split_decl", tfSplitDecl},
	{"wrap_block", tfWrapBlock},
	{"ternary2if", tfTernary2If},
}

// Transforms returns the fifteen rewrites, mirroring the "15 simpler
// transformations" Zhang et al. compose (loop restyling, branch reshaping,
// constant unfolding, dead code, declaration reshuffling, ...).
func Transforms() []Transform {
	return append([]Transform(nil), transforms...)
}

// TransformNames lists the transform names in order.
func TransformNames() []string {
	names := make([]string, len(transforms))
	for i, t := range transforms {
		names[i] = t.Name
	}
	return names
}

func transformByName(name string) (Transform, error) {
	for _, t := range transforms {
		if t.Name == name {
			return t, nil
		}
	}
	return Transform{}, fmt.Errorf("srcobf: unknown transform %q", name)
}

// fresh generates collision-free helper variable names; MiniC identifiers
// beginning with "__so" are reserved for the obfuscator.
type fresh struct{ n int }

func (fr *fresh) name() string {
	fr.n++
	return fmt.Sprintf("__so%d", fr.n)
}

// tfFor2While rewrites for(init;cond;post) into init; while(cond){body;
// post}. Loops whose body contains a top-level continue are skipped: the
// continue would bypass the post expression.
func tfFor2While(f *minic.File, rng *rand.Rand) bool {
	changed := false
	rewriteFileStmts(f, func(s minic.Stmt) minic.Stmt {
		fs, ok := s.(*minic.ForStmt)
		if !ok || containsContinue(fs.Body) || rng.Float64() > 0.8 {
			return s
		}
		cond := fs.Cond
		if cond == nil {
			cond = &minic.IntLit{Val: 1}
		}
		body := &minic.BlockStmt{List: []minic.Stmt{fs.Body}}
		if fs.Post != nil {
			body.List = append(body.List, &minic.ExprStmt{X: fs.Post})
		}
		var list []minic.Stmt
		if fs.Init != nil {
			list = append(list, fs.Init)
		}
		list = append(list, &minic.WhileStmt{Cond: cond, Body: body})
		changed = true
		return &minic.BlockStmt{List: list}
	})
	return changed
}

// tfWhile2For rewrites while(c) S into for(;c;) S. The for loop opens a
// scope, so loops whose body declares a name used outside it are skipped.
func tfWhile2For(f *minic.File, rng *rand.Rand) bool {
	changed := false
	rewriteFuncStmts(f, func(fn *minic.BlockStmt, s minic.Stmt) minic.Stmt {
		ws, ok := s.(*minic.WhileStmt)
		if !ok || rng.Float64() > 0.8 || usedOutside(fn, ws.Body) {
			return s
		}
		changed = true
		return &minic.ForStmt{Cond: ws.Cond, Body: ws.Body}
	})
	return changed
}

// tfWhile2DoWhile rewrites while(c) S into if(c) do S while(c). S moves
// into the if's block and ahead of the second c, so loops whose body
// declares a name used outside it are skipped.
func tfWhile2DoWhile(f *minic.File, rng *rand.Rand) bool {
	changed := false
	rewriteFuncStmts(f, func(fn *minic.BlockStmt, s minic.Stmt) minic.Stmt {
		ws, ok := s.(*minic.WhileStmt)
		if !ok || rng.Float64() > 0.7 {
			return s
		}
		// The condition is evaluated again, so it must be repeatable.
		if !sideEffectFree(ws.Cond) || usedOutside(fn, ws.Body) {
			return s
		}
		changed = true
		return &minic.IfStmt{
			Cond: cloneExpr(ws.Cond),
			Then: &minic.BlockStmt{List: []minic.Stmt{
				&minic.DoWhileStmt{Body: ws.Body, Cond: ws.Cond},
			}},
		}
	})
	return changed
}

// tfIfNegate rewrites if(c) A else B into if(!c) B else A. Swapping A and
// B reorders their declarations, so an if whose branch declares a name used
// outside that branch keeps its order.
func tfIfNegate(f *minic.File, rng *rand.Rand) bool {
	changed := false
	rewriteFuncStmts(f, func(fn *minic.BlockStmt, s minic.Stmt) minic.Stmt {
		is, ok := s.(*minic.IfStmt)
		if !ok || rng.Float64() > 0.6 {
			return s
		}
		neg := &minic.UnaryExpr{Op: "!", X: &minic.ParenExpr{X: is.Cond}}
		if is.Else != nil {
			if usedOutside(fn, is.Then) || usedOutside(fn, is.Else) {
				return s
			}
			changed = true
			return &minic.IfStmt{Cond: neg, Then: is.Else, Else: is.Then}
		}
		changed = true
		return &minic.IfStmt{Cond: neg, Then: &minic.EmptyStmt{}, Else: is.Then}
	})
	return changed
}

// tfSwitch2If rewrites switch statements without fallthrough into if-else
// chains comparing against a cached tag. Each case body becomes a block of
// its own, so a switch is skipped when a case body declares a name used
// outside it (a switch opens no scope: later cases and the code after the
// switch see it).
func tfSwitch2If(f *minic.File, rng *rand.Rand) bool {
	changed := false
	fr := &fresh{n: rng.Intn(1000) * 100}
	rewriteFuncStmts(f, func(fn *minic.BlockStmt, s minic.Stmt) minic.Stmt {
		sw, ok := s.(*minic.SwitchStmt)
		if !ok {
			return s
		}
		// Every case must end in a break (dropped) or return: fallthrough
		// cannot be expressed as an if-chain. Other top-level breaks would
		// re-bind to an enclosing loop.
		bodies := make([][]minic.Stmt, len(sw.Cases))
		for i, c := range sw.Cases {
			if len(c.Body) == 0 {
				return s
			}
			body := c.Body
			switch body[len(body)-1].(type) {
			case *minic.BreakStmt:
				body = body[:len(body)-1]
			case *minic.ReturnStmt:
				// fine as-is
			default:
				return s
			}
			for _, st := range body {
				if containsLoopBreak(st) {
					return s
				}
			}
			if usedOutside(fn, c.Body...) {
				return s
			}
			bodies[i] = body
		}
		tag := fr.name()
		decl := &minic.DeclStmt{Vars: []*minic.VarDecl{{
			Name: tag,
			Type: minic.TypeSpec{Base: minic.TInt},
			Init: sw.Tag,
		}}}
		// Build the chain: cases in order, default last.
		var chain minic.Stmt
		var defaultBody []minic.Stmt
		for i, c := range sw.Cases {
			if c.IsDefault {
				defaultBody = bodies[i]
			}
		}
		if defaultBody != nil {
			chain = &minic.BlockStmt{List: defaultBody}
		}
		for i := len(sw.Cases) - 1; i >= 0; i-- {
			c := sw.Cases[i]
			if c.IsDefault {
				continue
			}
			chain = &minic.IfStmt{
				Cond: &minic.BinaryExpr{Op: "==", X: &minic.Ident{Name: tag}, Y: &minic.IntLit{Val: c.Val}},
				Then: &minic.BlockStmt{List: bodies[i]},
				Else: chain,
			}
		}
		if chain == nil {
			chain = &minic.EmptyStmt{}
		}
		changed = true
		return &minic.BlockStmt{List: []minic.Stmt{decl, chain}}
	})
	return changed
}

// tfConstUnfold replaces integer literals with equivalent arithmetic.
func tfConstUnfold(f *minic.File, rng *rand.Rand) bool {
	changed := false
	rewriteAllExprs(f, func(e minic.Expr) minic.Expr {
		lit, ok := e.(*minic.IntLit)
		if !ok || rng.Float64() > 0.35 {
			return e
		}
		k := int64(rng.Intn(255) + 1)
		changed = true
		switch rng.Intn(3) {
		case 0: // (c-k)+k
			return &minic.ParenExpr{X: &minic.BinaryExpr{
				Op: "+",
				X:  &minic.ParenExpr{X: &minic.BinaryExpr{Op: "-", X: &minic.IntLit{Val: lit.Val}, Y: &minic.IntLit{Val: k}}},
				Y:  &minic.IntLit{Val: k},
			}}
		case 1: // (c^k)^k
			return &minic.ParenExpr{X: &minic.BinaryExpr{
				Op: "^",
				X:  &minic.ParenExpr{X: &minic.BinaryExpr{Op: "^", X: &minic.IntLit{Val: lit.Val}, Y: &minic.IntLit{Val: k}}},
				Y:  &minic.IntLit{Val: k},
			}}
		default: // (c+k)-k
			return &minic.ParenExpr{X: &minic.BinaryExpr{
				Op: "-",
				X:  &minic.ParenExpr{X: &minic.BinaryExpr{Op: "+", X: &minic.IntLit{Val: lit.Val}, Y: &minic.IntLit{Val: k}}},
				Y:  &minic.IntLit{Val: k},
			}}
		}
	})
	return changed
}

// tfDeadVar inserts dead local variables computed from constants.
func tfDeadVar(f *minic.File, rng *rand.Rand) bool {
	changed := false
	fr := &fresh{n: 10000 + rng.Intn(1000)*100}
	walkStmts(f, func(list []minic.Stmt) []minic.Stmt {
		if len(list) == 0 || rng.Float64() > 0.5 {
			return list
		}
		v := fr.name()
		decl := &minic.DeclStmt{Vars: []*minic.VarDecl{{
			Name: v,
			Type: minic.TypeSpec{Base: minic.TInt},
			Init: &minic.BinaryExpr{
				Op: []string{"+", "*", "^"}[rng.Intn(3)],
				X:  &minic.IntLit{Val: int64(rng.Intn(100))},
				Y:  &minic.IntLit{Val: int64(rng.Intn(100) + 1)},
			},
		}}}
		update := &minic.ExprStmt{X: &minic.AssignExpr{
			Op:  "+=",
			LHS: &minic.Ident{Name: v},
			RHS: &minic.IntLit{Val: int64(rng.Intn(50))},
		}}
		pos := rng.Intn(len(list) + 1)
		out := make([]minic.Stmt, 0, len(list)+2)
		out = append(out, list[:pos]...)
		out = append(out, decl, update)
		out = append(out, list[pos:]...)
		changed = true
		return out
	})
	return changed
}

// tfDeadIf inserts if(0){...} blocks with junk bodies.
func tfDeadIf(f *minic.File, rng *rand.Rand) bool {
	changed := false
	fr := &fresh{n: 20000 + rng.Intn(1000)*100}
	walkStmts(f, func(list []minic.Stmt) []minic.Stmt {
		if len(list) == 0 || rng.Float64() > 0.4 {
			return list
		}
		v := fr.name()
		junk := &minic.IfStmt{
			Cond: &minic.IntLit{Val: 0},
			Then: &minic.BlockStmt{List: []minic.Stmt{
				&minic.DeclStmt{Vars: []*minic.VarDecl{{
					Name: v, Type: minic.TypeSpec{Base: minic.TInt},
					Init: &minic.IntLit{Val: int64(rng.Intn(97))},
				}}},
				&minic.ExprStmt{X: &minic.AssignExpr{
					Op:  "=",
					LHS: &minic.Ident{Name: v},
					RHS: &minic.BinaryExpr{Op: "*", X: &minic.Ident{Name: v}, Y: &minic.IntLit{Val: 3}},
				}},
			}},
		}
		pos := rng.Intn(len(list) + 1)
		out := make([]minic.Stmt, 0, len(list)+1)
		out = append(out, list[:pos]...)
		out = append(out, junk)
		out = append(out, list[pos:]...)
		changed = true
		return out
	})
	return changed
}

// tfCommute swaps operands of commutative operators.
func tfCommute(f *minic.File, rng *rand.Rand) bool {
	changed := false
	rewriteAllExprs(f, func(e minic.Expr) minic.Expr {
		b, ok := e.(*minic.BinaryExpr)
		if !ok || rng.Float64() > 0.5 {
			return e
		}
		switch b.Op {
		case "+", "*", "&", "|", "^":
			// Swapping is safe only when evaluation order cannot be
			// observed (&& and || are excluded by construction).
			if sideEffectFree(b.X) && sideEffectFree(b.Y) {
				b.X, b.Y = b.Y, b.X
				changed = true
			}
		}
		return b
	})
	return changed
}

// tfCmpFlip mirrors comparisons: a<b becomes b>a, etc.
func tfCmpFlip(f *minic.File, rng *rand.Rand) bool {
	changed := false
	flip := map[string]string{"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}
	rewriteAllExprs(f, func(e minic.Expr) minic.Expr {
		b, ok := e.(*minic.BinaryExpr)
		if !ok || rng.Float64() > 0.5 {
			return e
		}
		nop, isCmp := flip[b.Op]
		if !isCmp || !sideEffectFree(b.X) || !sideEffectFree(b.Y) {
			return e
		}
		b.Op = nop
		b.X, b.Y = b.Y, b.X
		changed = true
		return b
	})
	return changed
}

// tfIncDec2Compound rewrites statement-level i++ into i += 1.
func tfIncDec2Compound(f *minic.File, rng *rand.Rand) bool {
	changed := false
	conv := func(e minic.Expr) minic.Expr {
		id, ok := e.(*minic.IncDecExpr)
		if !ok || rng.Float64() > 0.7 {
			return e
		}
		op := "+="
		if id.Op == "--" {
			op = "-="
		}
		changed = true
		return &minic.AssignExpr{Op: op, LHS: id.X, RHS: &minic.IntLit{Val: 1}}
	}
	rewriteFileStmts(f, func(s minic.Stmt) minic.Stmt {
		switch x := s.(type) {
		case *minic.ExprStmt:
			x.X = conv(x.X)
		case *minic.ForStmt:
			if x.Post != nil {
				x.Post = conv(x.Post)
			}
		}
		return s
	})
	return changed
}

// tfCompound2Plain rewrites x op= e into x = x op e when x is repeatable.
func tfCompound2Plain(f *minic.File, rng *rand.Rand) bool {
	changed := false
	rewriteAllExprs(f, func(e minic.Expr) minic.Expr {
		a, ok := e.(*minic.AssignExpr)
		if !ok || a.Op == "=" || rng.Float64() > 0.7 {
			return e
		}
		if !sideEffectFree(a.LHS) {
			return e
		}
		op := a.Op[:len(a.Op)-1]
		changed = true
		return &minic.AssignExpr{
			Op:  "=",
			LHS: a.LHS,
			RHS: &minic.BinaryExpr{Op: op, X: cloneExpr(a.LHS), Y: &minic.ParenExpr{X: a.RHS}},
		}
	})
	return changed
}

// tfSplitDecl splits "int a = e;" into "int a; a = e;".
func tfSplitDecl(f *minic.File, rng *rand.Rand) bool {
	changed := false
	walkStmts(f, func(list []minic.Stmt) []minic.Stmt {
		var out []minic.Stmt
		for _, s := range list {
			ds, ok := s.(*minic.DeclStmt)
			if !ok || rng.Float64() > 0.6 {
				out = append(out, s)
				continue
			}
			split := false
			for _, v := range ds.Vars {
				if v.Init != nil && !v.Const && !v.Type.IsArray() {
					split = true
				}
			}
			if !split {
				out = append(out, s)
				continue
			}
			var assigns []minic.Stmt
			for _, v := range ds.Vars {
				if v.Init != nil && !v.Const && !v.Type.IsArray() {
					assigns = append(assigns, &minic.ExprStmt{X: &minic.AssignExpr{
						Op: "=", LHS: &minic.Ident{Name: v.Name}, RHS: v.Init,
					}})
					v.Init = nil
				}
			}
			out = append(out, ds)
			out = append(out, assigns...)
			changed = true
		}
		return out
	})
	return changed
}

// tfWrapBlock wraps random statements in redundant braces.
func tfWrapBlock(f *minic.File, rng *rand.Rand) bool {
	changed := false
	walkStmts(f, func(list []minic.Stmt) []minic.Stmt {
		for i, s := range list {
			if rng.Float64() > 0.25 {
				continue
			}
			switch s.(type) {
			case *minic.DeclStmt, *minic.EmptyStmt:
				// Wrapping a declaration changes its scope.
				continue
			case *minic.ExprStmt, *minic.ReturnStmt, *minic.BreakStmt, *minic.ContinueStmt:
				list[i] = &minic.BlockStmt{List: []minic.Stmt{s}}
				changed = true
			}
		}
		return list
	})
	return changed
}

// tfTernary2If rewrites "x = c ? a : b;" into an if/else.
func tfTernary2If(f *minic.File, rng *rand.Rand) bool {
	changed := false
	rewriteFileStmts(f, func(s minic.Stmt) minic.Stmt {
		es, ok := s.(*minic.ExprStmt)
		if !ok || rng.Float64() > 0.8 {
			return s
		}
		as, ok := es.X.(*minic.AssignExpr)
		if !ok || as.Op != "=" {
			return s
		}
		cond, ok := as.RHS.(*minic.CondExpr)
		if !ok {
			return s
		}
		if _, isIdent := as.LHS.(*minic.Ident); !isIdent {
			return s
		}
		changed = true
		return &minic.IfStmt{
			Cond: cond.Cond,
			Then: &minic.BlockStmt{List: []minic.Stmt{&minic.ExprStmt{X: &minic.AssignExpr{
				Op: "=", LHS: cloneExpr(as.LHS), RHS: cond.Then,
			}}}},
			Else: &minic.BlockStmt{List: []minic.Stmt{&minic.ExprStmt{X: &minic.AssignExpr{
				Op: "=", LHS: cloneExpr(as.LHS), RHS: cond.Else,
			}}}},
		}
	})
	return changed
}
