// Package srcobf implements source-level obfuscation in the style of Zhang
// et al.: fifteen semantics-preserving MiniC AST transformations combined by
// four search strategies — Random Search (rs), Markov-Chain Monte Carlo
// (mcmc), a greedy distance-maximizing policy standing in for the deep
// reinforcement learner (drlsg), and a Genetic Algorithm (ga). These evaders
// operate before compilation, which is exactly why the paper finds their
// effect dissolves under SSA construction and -O3 normalization.
package srcobf

import "repro/internal/minic"

// cloneFile deep-copies a parsed file so transformations never alias the
// original AST.
func cloneFile(f *minic.File) *minic.File {
	nf := &minic.File{}
	for _, d := range f.Decls {
		nf.Decls = append(nf.Decls, cloneDecl(d))
	}
	return nf
}

func cloneDecl(d minic.Decl) minic.Decl {
	switch x := d.(type) {
	case *minic.StructDecl:
		nd := &minic.StructDecl{Name: x.Name}
		for _, f := range x.Fields {
			nd.Fields = append(nd.Fields, cloneVarDecl(f))
		}
		return nd
	case *minic.VarDecl:
		return cloneVarDecl(x)
	case *minic.FuncDecl:
		nd := &minic.FuncDecl{Name: x.Name, Ret: cloneType(x.Ret)}
		for _, p := range x.Params {
			nd.Params = append(nd.Params, &minic.ParamDecl{
				Name: p.Name, Type: cloneType(p.Type), Array: p.Array,
			})
		}
		if x.Body != nil {
			nd.Body = cloneStmt(x.Body).(*minic.BlockStmt)
		}
		return nd
	}
	return d
}

func cloneType(t minic.TypeSpec) minic.TypeSpec {
	u := t
	u.Dims = append([]int(nil), t.Dims...)
	return u
}

func cloneVarDecl(v *minic.VarDecl) *minic.VarDecl {
	nv := &minic.VarDecl{Name: v.Name, Type: cloneType(v.Type), Const: v.Const}
	if v.Init != nil {
		nv.Init = cloneExpr(v.Init)
	}
	for _, e := range v.Inits {
		nv.Inits = append(nv.Inits, cloneExpr(e))
	}
	return nv
}

func cloneStmts(list []minic.Stmt) []minic.Stmt {
	if list == nil {
		return nil
	}
	out := make([]minic.Stmt, len(list))
	for i, s := range list {
		out[i] = cloneStmt(s)
	}
	return out
}

func cloneStmt(s minic.Stmt) minic.Stmt {
	switch x := s.(type) {
	case *minic.BlockStmt:
		return &minic.BlockStmt{List: cloneStmts(x.List)}
	case *minic.DeclStmt:
		nd := &minic.DeclStmt{}
		for _, v := range x.Vars {
			nd.Vars = append(nd.Vars, cloneVarDecl(v))
		}
		return nd
	case *minic.IfStmt:
		ns := &minic.IfStmt{Cond: cloneExpr(x.Cond), Then: cloneStmt(x.Then)}
		if x.Else != nil {
			ns.Else = cloneStmt(x.Else)
		}
		return ns
	case *minic.WhileStmt:
		return &minic.WhileStmt{Cond: cloneExpr(x.Cond), Body: cloneStmt(x.Body)}
	case *minic.DoWhileStmt:
		return &minic.DoWhileStmt{Body: cloneStmt(x.Body), Cond: cloneExpr(x.Cond)}
	case *minic.ForStmt:
		ns := &minic.ForStmt{Body: cloneStmt(x.Body)}
		if x.Init != nil {
			ns.Init = cloneStmt(x.Init)
		}
		if x.Cond != nil {
			ns.Cond = cloneExpr(x.Cond)
		}
		if x.Post != nil {
			ns.Post = cloneExpr(x.Post)
		}
		return ns
	case *minic.SwitchStmt:
		ns := &minic.SwitchStmt{Tag: cloneExpr(x.Tag)}
		for _, c := range x.Cases {
			ns.Cases = append(ns.Cases, &minic.SwitchCase{
				Val: c.Val, IsDefault: c.IsDefault, Body: cloneStmts(c.Body),
			})
		}
		return ns
	case *minic.BreakStmt:
		return &minic.BreakStmt{}
	case *minic.ContinueStmt:
		return &minic.ContinueStmt{}
	case *minic.ReturnStmt:
		ns := &minic.ReturnStmt{}
		if x.Val != nil {
			ns.Val = cloneExpr(x.Val)
		}
		return ns
	case *minic.ExprStmt:
		return &minic.ExprStmt{X: cloneExpr(x.X)}
	case *minic.EmptyStmt:
		return &minic.EmptyStmt{}
	}
	return s
}

func cloneExpr(e minic.Expr) minic.Expr {
	switch x := e.(type) {
	case *minic.Ident:
		return &minic.Ident{Name: x.Name}
	case *minic.IntLit:
		return &minic.IntLit{Val: x.Val}
	case *minic.FloatLit:
		return &minic.FloatLit{Val: x.Val}
	case *minic.CharLit:
		return &minic.CharLit{Val: x.Val}
	case *minic.StringLit:
		return &minic.StringLit{Val: x.Val}
	case *minic.BinaryExpr:
		return &minic.BinaryExpr{Op: x.Op, X: cloneExpr(x.X), Y: cloneExpr(x.Y)}
	case *minic.UnaryExpr:
		return &minic.UnaryExpr{Op: x.Op, X: cloneExpr(x.X)}
	case *minic.IncDecExpr:
		return &minic.IncDecExpr{X: cloneExpr(x.X), Op: x.Op, Post: x.Post}
	case *minic.AssignExpr:
		return &minic.AssignExpr{Op: x.Op, LHS: cloneExpr(x.LHS), RHS: cloneExpr(x.RHS)}
	case *minic.CondExpr:
		return &minic.CondExpr{Cond: cloneExpr(x.Cond), Then: cloneExpr(x.Then), Else: cloneExpr(x.Else)}
	case *minic.CallExpr:
		nc := &minic.CallExpr{Name: x.Name}
		for _, a := range x.Args {
			nc.Args = append(nc.Args, cloneExpr(a))
		}
		return nc
	case *minic.IndexExpr:
		return &minic.IndexExpr{X: cloneExpr(x.X), Idx: cloneExpr(x.Idx)}
	case *minic.FieldExpr:
		return &minic.FieldExpr{X: cloneExpr(x.X), Name: x.Name, Arrow: x.Arrow}
	case *minic.CastExpr:
		return &minic.CastExpr{To: cloneType(x.To), X: cloneExpr(x.X)}
	case *minic.ParenExpr:
		return &minic.ParenExpr{X: cloneExpr(x.X)}
	}
	return e
}

// walkStmts visits every statement list in the file bottom-up, letting fn
// rewrite the list (insertions, deletions, replacements).
func walkStmts(f *minic.File, fn func([]minic.Stmt) []minic.Stmt) {
	for _, d := range f.Decls {
		fd, ok := d.(*minic.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		walkStmtLists(fd.Body, fn)
	}
}

func walkStmtLists(s minic.Stmt, fn func([]minic.Stmt) []minic.Stmt) {
	switch x := s.(type) {
	case *minic.BlockStmt:
		for _, st := range x.List {
			walkStmtLists(st, fn)
		}
		x.List = fn(x.List)
	case *minic.IfStmt:
		walkStmtLists(x.Then, fn)
		if x.Else != nil {
			walkStmtLists(x.Else, fn)
		}
	case *minic.WhileStmt:
		walkStmtLists(x.Body, fn)
	case *minic.DoWhileStmt:
		walkStmtLists(x.Body, fn)
	case *minic.ForStmt:
		walkStmtLists(x.Body, fn)
	case *minic.SwitchStmt:
		for _, c := range x.Cases {
			for _, st := range c.Body {
				walkStmtLists(st, fn)
			}
			c.Body = fn(c.Body)
		}
	}
}

// rewriteStmt rewrites each statement node bottom-up via fn.
func rewriteStmt(s minic.Stmt, fn func(minic.Stmt) minic.Stmt) minic.Stmt {
	switch x := s.(type) {
	case *minic.BlockStmt:
		for i, st := range x.List {
			x.List[i] = rewriteStmt(st, fn)
		}
	case *minic.IfStmt:
		x.Then = rewriteStmt(x.Then, fn)
		if x.Else != nil {
			x.Else = rewriteStmt(x.Else, fn)
		}
	case *minic.WhileStmt:
		x.Body = rewriteStmt(x.Body, fn)
	case *minic.DoWhileStmt:
		x.Body = rewriteStmt(x.Body, fn)
	case *minic.ForStmt:
		if x.Init != nil {
			x.Init = rewriteStmt(x.Init, fn)
		}
		x.Body = rewriteStmt(x.Body, fn)
	case *minic.SwitchStmt:
		for _, c := range x.Cases {
			for i, st := range c.Body {
				c.Body[i] = rewriteStmt(st, fn)
			}
		}
	}
	return fn(s)
}

// rewriteFileStmts applies fn to every statement in every function.
func rewriteFileStmts(f *minic.File, fn func(minic.Stmt) minic.Stmt) {
	rewriteFuncStmts(f, func(_ *minic.BlockStmt, s minic.Stmt) minic.Stmt { return fn(s) })
}

// rewriteFuncStmts is rewriteFileStmts for rewrites that look at the rest
// of the function: fn also gets the body of the function s is in.
func rewriteFuncStmts(f *minic.File, fn func(body *minic.BlockStmt, s minic.Stmt) minic.Stmt) {
	for _, d := range f.Decls {
		fd, ok := d.(*minic.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		body := fd.Body
		fd.Body = rewriteStmt(body, func(s minic.Stmt) minic.Stmt { return fn(body, s) }).(*minic.BlockStmt)
	}
}

// rewriteExpr rewrites an expression tree bottom-up.
func rewriteExpr(e minic.Expr, fn func(minic.Expr) minic.Expr) minic.Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *minic.BinaryExpr:
		x.X = rewriteExpr(x.X, fn)
		x.Y = rewriteExpr(x.Y, fn)
	case *minic.UnaryExpr:
		x.X = rewriteExpr(x.X, fn)
	case *minic.IncDecExpr:
		x.X = rewriteExpr(x.X, fn)
	case *minic.AssignExpr:
		x.LHS = rewriteExpr(x.LHS, fn)
		x.RHS = rewriteExpr(x.RHS, fn)
	case *minic.CondExpr:
		x.Cond = rewriteExpr(x.Cond, fn)
		x.Then = rewriteExpr(x.Then, fn)
		x.Else = rewriteExpr(x.Else, fn)
	case *minic.CallExpr:
		for i, a := range x.Args {
			x.Args[i] = rewriteExpr(a, fn)
		}
	case *minic.IndexExpr:
		x.X = rewriteExpr(x.X, fn)
		x.Idx = rewriteExpr(x.Idx, fn)
	case *minic.FieldExpr:
		x.X = rewriteExpr(x.X, fn)
	case *minic.CastExpr:
		x.X = rewriteExpr(x.X, fn)
	case *minic.ParenExpr:
		x.X = rewriteExpr(x.X, fn)
	}
	return fn(e)
}

// rewriteAllExprs applies fn to every expression in every statement of the
// file, including loop clauses, switch tags and initializers.
func rewriteAllExprs(f *minic.File, fn func(minic.Expr) minic.Expr) {
	rewriteFileStmts(f, func(s minic.Stmt) minic.Stmt {
		rewriteStmtExprs(s, fn)
		return s
	})
}

// rewriteStmtExprs applies fn to the expressions s holds itself, not to
// those of the statements nested in it.
func rewriteStmtExprs(s minic.Stmt, fn func(minic.Expr) minic.Expr) {
	switch x := s.(type) {
	case *minic.ExprStmt:
		x.X = rewriteExpr(x.X, fn)
	case *minic.IfStmt:
		x.Cond = rewriteExpr(x.Cond, fn)
	case *minic.WhileStmt:
		x.Cond = rewriteExpr(x.Cond, fn)
	case *minic.DoWhileStmt:
		x.Cond = rewriteExpr(x.Cond, fn)
	case *minic.ForStmt:
		if x.Cond != nil {
			x.Cond = rewriteExpr(x.Cond, fn)
		}
		if x.Post != nil {
			x.Post = rewriteExpr(x.Post, fn)
		}
	case *minic.SwitchStmt:
		x.Tag = rewriteExpr(x.Tag, fn)
	case *minic.ReturnStmt:
		if x.Val != nil {
			x.Val = rewriteExpr(x.Val, fn)
		}
	case *minic.DeclStmt:
		for _, v := range x.Vars {
			if v.Init != nil {
				v.Init = rewriteExpr(v.Init, fn)
			}
			for i, e := range v.Inits {
				v.Inits[i] = rewriteExpr(e, fn)
			}
		}
	}
}

// usedOutside reports whether a name that the statements of unit declare
// into the scope around them is used in body outside unit. MiniC opens a
// scope only for a block or a for loop, so a declaration in a switch case,
// or in the unbraced body of an if, while or do-while, stays visible after
// that statement. A rewrite that moves unit into a new scope, or reorders
// it against its neighbours, skips it when this holds.
func usedOutside(body *minic.BlockStmt, unit ...minic.Stmt) bool {
	var names []string
	for _, s := range unit {
		names = scopeDecls(s, names)
	}
	for _, name := range names {
		inside := 0
		for _, s := range unit {
			inside += uses(s, name)
		}
		if uses(body, name) > inside {
			return true
		}
	}
	return false
}

// scopeDecls appends the names s declares into the scope around it.
func scopeDecls(s minic.Stmt, names []string) []string {
	switch x := s.(type) {
	case *minic.DeclStmt:
		for _, v := range x.Vars {
			names = append(names, v.Name)
		}
	case *minic.IfStmt:
		names = scopeDecls(x.Then, names)
		if x.Else != nil {
			names = scopeDecls(x.Else, names)
		}
	case *minic.WhileStmt:
		names = scopeDecls(x.Body, names)
	case *minic.DoWhileStmt:
		names = scopeDecls(x.Body, names)
	case *minic.SwitchStmt:
		for _, c := range x.Cases {
			for _, st := range c.Body {
				names = scopeDecls(st, names)
			}
		}
	}
	return names
}

// uses counts the identifiers named name in s.
func uses(s minic.Stmt, name string) int {
	n := 0
	rewriteStmt(s, func(st minic.Stmt) minic.Stmt {
		rewriteStmtExprs(st, func(e minic.Expr) minic.Expr {
			if id, ok := e.(*minic.Ident); ok && id.Name == name {
				n++
			}
			return e
		})
		return st
	})
	return n
}

// containsContinue reports whether s contains a continue binding to the
// current loop level (not nested in an inner loop).
func containsContinue(s minic.Stmt) bool {
	switch x := s.(type) {
	case *minic.ContinueStmt:
		return true
	case *minic.BlockStmt:
		for _, st := range x.List {
			if containsContinue(st) {
				return true
			}
		}
	case *minic.IfStmt:
		if containsContinue(x.Then) {
			return true
		}
		if x.Else != nil && containsContinue(x.Else) {
			return true
		}
	case *minic.SwitchStmt:
		for _, c := range x.Cases {
			for _, st := range c.Body {
				if containsContinue(st) {
					return true
				}
			}
		}
	}
	// while/do/for open a new loop level: continues inside bind there.
	return false
}

// containsLoopBreak reports whether s contains a break binding at this
// statement level (not captured by a nested loop or switch).
func containsLoopBreak(s minic.Stmt) bool {
	switch x := s.(type) {
	case *minic.BreakStmt:
		return true
	case *minic.BlockStmt:
		for _, st := range x.List {
			if containsLoopBreak(st) {
				return true
			}
		}
	case *minic.IfStmt:
		if containsLoopBreak(x.Then) {
			return true
		}
		if x.Else != nil && containsLoopBreak(x.Else) {
			return true
		}
	}
	return false
}

// sideEffectFree reports whether evaluating e twice is observably the same
// as evaluating it once.
func sideEffectFree(e minic.Expr) bool {
	switch x := e.(type) {
	case *minic.Ident, *minic.IntLit, *minic.FloatLit, *minic.CharLit, *minic.StringLit:
		return true
	case *minic.BinaryExpr:
		return sideEffectFree(x.X) && sideEffectFree(x.Y)
	case *minic.UnaryExpr:
		return x.Op != "*" && sideEffectFree(x.X) // loads may trap on bad ptr
	case *minic.IndexExpr:
		return sideEffectFree(x.X) && sideEffectFree(x.Idx)
	case *minic.FieldExpr:
		return sideEffectFree(x.X)
	case *minic.CastExpr:
		return sideEffectFree(x.X)
	case *minic.ParenExpr:
		return sideEffectFree(x.X)
	case *minic.CondExpr:
		return sideEffectFree(x.Cond) && sideEffectFree(x.Then) && sideEffectFree(x.Else)
	}
	return false
}
