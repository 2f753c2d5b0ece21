// Package progen generates seeded, deterministic, well-typed MiniC programs
// for differential testing of the compiler, the optimization passes and the
// obfuscators. Programs are biased away from undefined or unstable behaviour
// by construction so that any observable divergence after a transformation is
// a transformation bug, not generator noise:
//
//   - every loop has a constant bound and every recursion a decreasing
//     guard, so programs terminate well under the interpreter step budget;
//   - every division or remainder denominator is a positive literal or an
//     expression forced odd with "| 1", so no division traps;
//   - every array index is a loop induction variable bounded by the array
//     length or an expression reduced modulo the length, so no memory traps;
//   - every local — scalar, array element, struct field — is initialized
//     before use, so behaviour never depends on stack reuse patterns that a
//     pass (mem2reg, inline) would legally change.
//
// The same seed always yields the same program, which keeps fuzz campaigns
// replayable and shrunk crashers reproducible.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the shape of generated programs.
type Config struct {
	// MaxHelpers is the number of helper functions besides main (0..).
	MaxHelpers int
	// MaxStmts is the statement budget of each function body.
	MaxStmts int
	// MaxDepth caps control-flow nesting (loops in loops in ifs...).
	MaxDepth int
	// Structs, Floats, Pointers and Globals gate the corresponding
	// features; all default to on.
	Structs  bool
	Floats   bool
	Pointers bool
	Globals  bool
}

// DefaultConfig is the full-featured shape used by fuzz campaigns.
func DefaultConfig() Config {
	return Config{MaxHelpers: 3, MaxStmts: 10, MaxDepth: 3,
		Structs: true, Floats: true, Pointers: true, Globals: true}
}

// Generate produces one program with the default configuration.
func Generate(rng *rand.Rand) string { return GenerateCfg(rng, DefaultConfig()) }

// GenerateSeed produces the program for one campaign seed. It is the
// canonical seed-to-program mapping shared by `arena fuzz`, the difftest
// harness and the Go fuzz targets, so a crasher's seed replays everywhere.
func GenerateSeed(seed int64) string {
	return Generate(rand.New(rand.NewSource(seed)))
}

// GenerateCfg produces one program under the given bounds.
func GenerateCfg(rng *rand.Rand, cfg Config) string {
	if cfg.MaxStmts <= 0 {
		cfg.MaxStmts = 6
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 2
	}
	g := &pg{rng: rng, cfg: cfg}
	g.program()
	return g.b.String()
}

// arr is an in-scope int array.
type arr struct {
	name string
	n    int
}

// helper is a callable helper function.
type helper struct {
	name   string
	params int // int parameters
}

// pg carries the generator state for one program.
type pg struct {
	rng *rand.Rand
	cfg Config
	b   strings.Builder

	nameCtr int
	indent  int

	// Scopes. Only function-top-level declarations enter these pools, so
	// everything in them stays visible for the rest of the body.
	ints []string // readable+writable int lvalues (vars, fields)
	ro   []string // read-only ints (loop induction variables): writing one
	// from a random statement would break the in-bounds-index and
	// termination guarantees, so they never become assignment targets
	floats []string
	arrays []arr

	intHelpers  []helper
	ptrHelper   string // void(int*, int)
	floatHelper string // float(float)
	recHelper   string // int(int, int) guarded recursion
	structName  string // declared struct tag, "" if none

	loopDepth int
}

func (g *pg) name(prefix string) string {
	g.nameCtr++
	return fmt.Sprintf("%s%d", prefix, g.nameCtr-1)
}

func (g *pg) line(format string, args ...interface{}) {
	g.b.WriteString(strings.Repeat("  ", g.indent))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// program emits the whole translation unit.
func (g *pg) program() {
	if g.cfg.Structs && g.rng.Intn(2) == 0 {
		g.structName = g.name("S")
		g.line("struct %s { int x; int y; float w; };", g.structName)
	}
	if g.cfg.Globals {
		g.emitGlobals()
	}
	nh := 0
	if g.cfg.MaxHelpers > 0 {
		nh = g.rng.Intn(g.cfg.MaxHelpers + 1)
	}
	for i := 0; i < nh; i++ {
		g.emitHelper()
	}
	g.emitMain()
}

func (g *pg) emitGlobals() {
	for i := g.rng.Intn(3); i > 0; i-- {
		n := g.name("g")
		g.line("int %s = %d;", n, g.rng.Intn(41)-20)
		g.ints = append(g.ints, n)
	}
	if g.rng.Intn(2) == 0 {
		n := g.name("ga")
		dim := g.rng.Intn(7) + 4
		if g.rng.Intn(2) == 0 {
			vals := make([]string, dim)
			for i := range vals {
				vals[i] = fmt.Sprintf("%d", g.rng.Intn(90)-30)
			}
			g.line("int %s[%d] = {%s};", n, dim, strings.Join(vals, ", "))
		} else {
			// Globals are zero-initialized, so an uninitialized global
			// array is still well-defined.
			g.line("int %s[%d];", n, dim)
		}
		g.arrays = append(g.arrays, arr{n, dim})
	}
	if g.cfg.Floats && g.rng.Intn(3) == 0 {
		n := g.name("gf")
		g.line("float %s = %d.%d;", n, g.rng.Intn(9), g.rng.Intn(100))
		g.floats = append(g.floats, n)
	}
}

// emitHelper emits one helper function of a random kind and registers it.
func (g *pg) emitHelper() {
	switch k := g.rng.Intn(4); {
	case k == 0 && g.cfg.Pointers && g.ptrHelper == "":
		n := g.name("bump")
		g.line("void %s(int *p, int d) {", n)
		g.indent++
		body := []string{"*p = *p + d;", "*p = *p ^ (d >> 1);", "if (d > 0) { *p = *p - 1; }"}
		g.line("%s", body[g.rng.Intn(len(body))])
		g.indent--
		g.line("}")
		g.ptrHelper = n
	case k == 1 && g.cfg.Floats && g.floatHelper == "":
		n := g.name("fh")
		g.line("float %s(float x) {", n)
		g.indent++
		switch g.rng.Intn(3) {
		case 0:
			g.line("return x * %d.5 + %d.25;", g.rng.Intn(3)+1, g.rng.Intn(4))
		case 1:
			g.line("return sqrt(fabs(x)) + %d.0;", g.rng.Intn(5))
		default:
			g.line("if (x < 0.0) { return - x; }\nreturn x / %d.0;", g.rng.Intn(7)+2)
		}
		g.indent--
		g.line("}")
		g.floatHelper = n
	case k == 2 && g.recHelper == "":
		n := g.name("rec")
		g.line("int %s(int n, int acc) {", n)
		g.indent++
		g.line("if (n <= 0) { return acc; }")
		g.line("return %s(n - 1, acc + n %% %d + %d);", n, g.rng.Intn(7)+2, g.rng.Intn(5))
		g.indent--
		g.line("}")
		g.recHelper = n
	default:
		n := g.name("h")
		params := g.rng.Intn(2) + 1
		decl := make([]string, params)
		vars := make([]string, params)
		for i := range decl {
			vars[i] = fmt.Sprintf("p%d", i)
			decl[i] = "int " + vars[i]
		}
		g.line("int %s(%s) {", n, strings.Join(decl, ", "))
		g.indent++
		// Helpers get a small straight-line body over their parameters:
		// bounded loops here would multiply the dynamic cost of every call
		// site, so keep the interesting control flow in main.
		for i := g.rng.Intn(2) + 1; i > 0; i-- {
			g.line("%s = %s;", vars[g.rng.Intn(params)], g.safeIntExpr(vars, 2))
		}
		g.line("return %s;", g.safeIntExpr(vars, 2))
		g.indent--
		g.line("}")
		g.intHelpers = append(g.intHelpers, helper{n, params})
	}
}

func (g *pg) emitMain() {
	g.line("int main() {")
	g.indent++
	g.emitLocals()
	for i := g.rng.Intn(g.cfg.MaxStmts/2+1) + g.cfg.MaxStmts/2; i > 0; i-- {
		g.stmt(g.cfg.MaxDepth)
	}
	g.line("return ((%s) %% 1000000007 + 1000000007) %% 1000000007;", g.intExpr(3))
	g.indent--
	g.line("}")
}

// emitLocals declares main's variable pool, every one initialized.
func (g *pg) emitLocals() {
	for i := g.rng.Intn(3) + 2; i > 0; i-- {
		n := g.name("v")
		g.line("int %s = %d;", n, g.rng.Intn(61)-30)
		g.ints = append(g.ints, n)
	}
	if g.rng.Intn(2) == 0 {
		n := g.name("a")
		dim := g.rng.Intn(7) + 4
		if g.rng.Intn(2) == 0 {
			vals := make([]string, dim)
			for i := range vals {
				vals[i] = fmt.Sprintf("%d", g.rng.Intn(50)-10)
			}
			g.line("int %s[%d] = {%s};", n, dim, strings.Join(vals, ", "))
		} else {
			iv := g.name("i")
			g.line("int %s[%d];", n, dim)
			g.line("for (int %s = 0; %s < %d; %s++) { %s[%s] = %s * %d - %d; }",
				iv, iv, dim, iv, n, iv, iv, g.rng.Intn(5)+1, g.rng.Intn(7))
		}
		g.arrays = append(g.arrays, arr{n, dim})
	}
	if g.rng.Intn(3) == 0 {
		n := g.name("c")
		g.line("char %s = '%c';", n, byte('a'+g.rng.Intn(26)))
		g.ints = append(g.ints, n) // chars promote in int arithmetic
	}
	if g.cfg.Floats && g.rng.Intn(2) == 0 {
		n := g.name("f")
		g.line("float %s = %d.%d;", n, g.rng.Intn(5), g.rng.Intn(100))
		g.floats = append(g.floats, n)
	}
	if g.structName != "" {
		n := g.name("s")
		g.line("struct %s %s;", g.structName, n)
		g.line("%s.x = %d;", n, g.rng.Intn(20))
		g.line("%s.y = %d;", n, g.rng.Intn(20)-10)
		g.line("%s.w = %d.5;", n, g.rng.Intn(4))
		g.ints = append(g.ints, n+".x", n+".y")
		g.floats = append(g.floats, n+".w")
		if g.cfg.Pointers && g.rng.Intn(2) == 0 {
			g.structVarPtrHelper(n)
		}
	}
}

// structVarPtrHelper is emitted lazily into main via a pre-declared helper;
// since helpers must precede main in the source, we instead fold the
// pointer-to-struct access into plain field writes here.
func (g *pg) structVarPtrHelper(n string) {
	g.line("%s.x = %s.x + %s.y;", n, n, n)
}

// stmt emits one statement; depth bounds control-flow nesting.
func (g *pg) stmt(depth int) {
	choices := []func(int){g.assignStmt, g.assignStmt, g.printStmt, g.callStmt, g.arrayStmt}
	if depth > 0 {
		choices = append(choices, g.ifStmt, g.forStmt, g.whileStmt, g.switchStmt, g.doWhileStmt)
		// Weight loops and branches up: they are what passes chew on.
		choices = append(choices, g.ifStmt, g.forStmt)
	}
	choices[g.rng.Intn(len(choices))](depth)
}

func (g *pg) assignStmt(int) {
	if len(g.floats) > 0 && g.rng.Intn(4) == 0 {
		f := g.floats[g.rng.Intn(len(g.floats))]
		g.line("%s = %s;", f, g.floatExpr(2))
		return
	}
	v := g.ints[g.rng.Intn(len(g.ints))]
	if op := g.rng.Intn(4); op > 0 {
		g.line("%s %s= %s;", v, []string{"+", "-", "^"}[op-1], g.intExpr(2))
		return
	}
	g.line("%s = %s;", v, g.intExpr(3))
}

func (g *pg) printStmt(int) {
	if len(g.floats) > 0 && g.rng.Intn(4) == 0 {
		g.line("print(%s);", g.floats[g.rng.Intn(len(g.floats))])
		return
	}
	g.line("print(%s);", g.intExpr(2))
}

func (g *pg) callStmt(depth int) {
	switch {
	case g.ptrHelper != "" && g.rng.Intn(2) == 0:
		g.line("%s(&%s, %s);", g.ptrHelper, g.plainIntVar(), g.intExpr(1))
	case g.recHelper != "" && g.rng.Intn(2) == 0:
		g.line("%s = %s(%d, %s);", g.ints[g.rng.Intn(len(g.ints))],
			g.recHelper, g.rng.Intn(12)+1, g.intExpr(1))
	case g.floatHelper != "" && len(g.floats) > 0 && g.rng.Intn(2) == 0:
		g.line("%s = %s(%s);", g.floats[g.rng.Intn(len(g.floats))],
			g.floatHelper, g.floatExpr(1))
	case len(g.intHelpers) > 0:
		h := g.intHelpers[g.rng.Intn(len(g.intHelpers))]
		args := make([]string, h.params)
		for i := range args {
			args[i] = g.intExpr(1)
		}
		g.line("%s = %s(%s);", g.ints[g.rng.Intn(len(g.ints))], h.name, strings.Join(args, ", "))
	default:
		g.assignStmt(depth)
	}
}

// plainIntVar returns an addressable int variable (no struct fields — &s.x
// is legal but keeps the generated shapes simpler to shrink).
func (g *pg) plainIntVar() string {
	for tries := 0; tries < 8; tries++ {
		v := g.ints[g.rng.Intn(len(g.ints))]
		if !strings.Contains(v, ".") {
			return v
		}
	}
	return g.ints[0]
}

func (g *pg) arrayStmt(int) {
	if len(g.arrays) == 0 {
		g.assignStmt(0)
		return
	}
	a := g.arrays[g.rng.Intn(len(g.arrays))]
	idx := g.safeIndex(a)
	g.line("%s[%s] = %s;", a.name, idx, g.intExpr(2))
}

// safeIndex renders an in-bounds index expression for a.
func (g *pg) safeIndex(a arr) string {
	if g.rng.Intn(2) == 0 {
		return fmt.Sprintf("%d", g.rng.Intn(a.n))
	}
	// ((e % n) + n) % n is in [0, n) for any signed e.
	return fmt.Sprintf("((%s %% %d + %d) %% %d)", g.intExpr(1), a.n, a.n, a.n)
}

func (g *pg) cond() string {
	a, b := g.intExpr(1), g.intExpr(1)
	op := []string{"<", ">", "<=", ">=", "==", "!="}[g.rng.Intn(6)]
	c := fmt.Sprintf("%s %s %s", a, op, b)
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("%s && %s %s %s", c, g.intExpr(1),
			[]string{"<", "!="}[g.rng.Intn(2)], g.intExpr(1))
	case 1:
		return fmt.Sprintf("%s || %s == %s", c, g.intExpr(1), g.intExpr(1))
	default:
		return c
	}
}

func (g *pg) ifStmt(depth int) {
	g.line("if (%s) {", g.cond())
	g.indent++
	for i := g.rng.Intn(2) + 1; i > 0; i-- {
		g.stmt(depth - 1)
	}
	g.indent--
	if g.rng.Intn(2) == 0 {
		g.line("} else {")
		g.indent++
		g.stmt(depth - 1)
		g.indent--
	}
	g.line("}")
}

func (g *pg) forStmt(depth int) {
	iv := g.name("i")
	bound := g.rng.Intn(9) + 2
	g.line("for (int %s = 0; %s < %d; %s++) {", iv, iv, bound, iv)
	g.loopBody(depth, iv, bound)
	g.line("}")
}

func (g *pg) whileStmt(depth int) {
	iv := g.name("t")
	bound := g.rng.Intn(7) + 2
	g.line("int %s = 0;", iv)
	g.line("while (%s < %d) {", iv, bound)
	g.indent++
	g.loopInner(depth, iv, bound, false)
	g.line("%s = %s + 1;", iv, iv)
	g.indent--
	g.line("}")
}

func (g *pg) doWhileStmt(depth int) {
	iv := g.name("d")
	bound := g.rng.Intn(5) + 1
	g.line("int %s = 0;", iv)
	g.line("do {")
	g.indent++
	g.loopInner(depth, iv, bound, false)
	g.line("%s++;", iv)
	g.indent--
	g.line("} while (%s < %d);", iv, bound)
}

// loopBody emits a loop body between braces (indentation handled here).
func (g *pg) loopBody(depth int, iv string, bound int) {
	g.indent++
	g.loopInner(depth, iv, bound, true)
	g.indent--
}

// loopInner emits 1-2 statements that may use the induction variable, plus
// an occasional guarded break/continue.
func (g *pg) loopInner(depth int, iv string, bound int, isFor bool) {
	g.loopDepth++
	defer func() { g.loopDepth-- }()
	// The induction variable is readable in the body but never a write
	// target; see the ro field comment.
	g.ro = append(g.ro, iv)
	defer func() { g.ro = g.ro[:len(g.ro)-1] }()
	if len(g.arrays) > 0 && g.rng.Intn(2) == 0 {
		a := g.arrays[g.rng.Intn(len(g.arrays))]
		idx := fmt.Sprintf("%s %% %d", iv, a.n)
		if bound <= a.n {
			idx = iv
		}
		g.line("%s[%s] = %s[%s] + %s;", a.name, idx, a.name, idx, g.intExpr(1))
	}
	for i := g.rng.Intn(2) + 1; i > 0; i-- {
		g.stmt(depth - 1)
	}
	if g.rng.Intn(4) == 0 {
		// continue only in for loops: in while/do-while the counter
		// increment sits at the end of the body, so skipping it would
		// loop forever.
		kw := "continue"
		if !isFor || g.rng.Intn(2) == 0 {
			kw = "break"
		}
		g.line("if (%s == %d) { %s; }", iv, g.rng.Intn(bound), kw)
	}
}

func (g *pg) switchStmt(depth int) {
	g.line("switch (%s %% %d) {", g.plainIntVar(), g.rng.Intn(3)+2)
	ncases := g.rng.Intn(3) + 1
	for i := 0; i < ncases; i++ {
		// Negative remainders fall through to default, which is fine.
		g.line("case %d: {", i)
		g.indent++
		g.stmt(depth - 1)
		g.indent--
		g.line("} break;")
	}
	if g.rng.Intn(2) == 0 {
		g.line("default: {")
		g.indent++
		g.stmt(depth - 1)
		g.indent--
		g.line("}")
	}
	g.line("}")
}

// intExpr renders a random int expression over the in-scope int pool, plus
// array reads, float casts, ternaries and calls at low probability.
func (g *pg) intExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return g.intLeaf()
	}
	switch g.rng.Intn(12) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 3:
		return fmt.Sprintf("(%s / (%s | 1))", g.intExpr(depth-1), g.intExpr(depth-1))
	case 4:
		return fmt.Sprintf("(%s %% (%s | 1))", g.intExpr(depth-1), g.intExpr(depth-1))
	case 5:
		return fmt.Sprintf("(%s ^ %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 6:
		return fmt.Sprintf("(%s & %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 7:
		return fmt.Sprintf("(%s | %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 8:
		return fmt.Sprintf("(%s << %d)", g.intExpr(depth-1), g.rng.Intn(7))
	case 9:
		return fmt.Sprintf("(%s >> %d)", g.intExpr(depth-1), g.rng.Intn(7))
	case 10:
		return fmt.Sprintf("(%s ? %s : %s)", g.cond(), g.intExpr(depth-1), g.intExpr(depth-1))
	default:
		if len(g.floats) > 0 && g.rng.Intn(3) == 0 {
			// Floats stay small by construction, so fptosi is exact enough
			// to be deterministic across transforms.
			return fmt.Sprintf("(int)(%s)", g.floatExpr(1))
		}
		return fmt.Sprintf("(- %s)", g.intExpr(depth-1))
	}
}

func (g *pg) intLeaf() string {
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("%d", g.rng.Intn(200)-100)
	case 1:
		if len(g.arrays) > 0 {
			a := g.arrays[g.rng.Intn(len(g.arrays))]
			return fmt.Sprintf("%s[%s]", a.name, g.safeIndex(a))
		}
		fallthrough
	case 2:
		if len(g.ro) > 0 {
			return g.ro[g.rng.Intn(len(g.ro))]
		}
		fallthrough
	default:
		return g.ints[g.rng.Intn(len(g.ints))]
	}
}

// safeIntExpr is intExpr restricted to an explicit variable set (used inside
// helper bodies, where main's pool is not in scope).
func (g *pg) safeIntExpr(vars []string, depth int) string {
	return RandExpr(g.rng, vars, depth)
}

func (g *pg) floatExpr(depth int) string {
	if len(g.floats) == 0 || depth <= 0 || g.rng.Intn(3) == 0 {
		if len(g.floats) > 0 && g.rng.Intn(2) == 0 {
			return g.floats[g.rng.Intn(len(g.floats))]
		}
		return fmt.Sprintf("%d.%d", g.rng.Intn(6), g.rng.Intn(100))
	}
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 3:
		return fmt.Sprintf("(%s / %d.5)", g.floatExpr(depth-1), g.rng.Intn(8)+1)
	case 4:
		return fmt.Sprintf("fabs(%s)", g.floatExpr(depth-1))
	default:
		return fmt.Sprintf("(float)(%s)", g.intExpr(1))
	}
}
