// Package dataset synthesizes the corpora of the paper's evaluation: a
// balanced POJ-104-like benchmark of 104 programming problems with
// arbitrarily many structurally distinct MiniC solutions per problem, a
// Mirai-like malware family with benign counterparts (RQ8), and the sixteen
// "Benchmark Game" kernels used by the performance experiment (RQ6).
package dataset

import (
	"fmt"
	"math/rand"
	"strings"
)

// gen provides the structural-variation toolkit shared by all problem
// generators: randomized identifier names, loop styles, increment styles,
// comparison direction, constant spelling and harmless statement noise.
// Two solutions to the same problem differ in all of these axes while
// implementing the same algorithm — mirroring how 500 different humans
// solved each POJ-104 problem.
type gen struct {
	r     *rand.Rand
	used  map[string]bool
	noise bool // whether this sample sprinkles dead statements
}

func newGen(r *rand.Rand) *gen {
	return &gen{r: r, used: map[string]bool{}, noise: r.Intn(3) == 0}
}

var namePools = map[string][]string{
	"idx": {"i", "j", "k", "n", "p", "q", "t", "pos", "ii", "c1"},
	"arr": {"a", "arr", "data", "v", "buf", "vec", "nums", "xs", "tab"},
	"acc": {"s", "sum", "acc", "total", "res", "r", "out", "ans", "agg"},
	"tmp": {"t", "tmp", "aux", "x", "y", "z", "w", "h", "m"},
	"fn":  {"solve", "work", "calc", "run", "process", "compute", "doit"},
}

// v returns a fresh identifier drawn from the named pool.
func (g *gen) v(pool string) string {
	candidates := namePools[pool]
	for tries := 0; tries < 20; tries++ {
		n := candidates[g.r.Intn(len(candidates))]
		if !g.used[n] {
			g.used[n] = true
			return n
		}
	}
	// Pool exhausted: make a numbered name.
	for i := 0; ; i++ {
		n := fmt.Sprintf("%s%d", candidates[0], i)
		if !g.used[n] {
			g.used[n] = true
			return n
		}
	}
}

// num renders an integer literal, occasionally as a tiny expression.
func (g *gen) num(v int64) string {
	if g.r.Intn(4) != 0 || v < 2 || v > 1000 {
		return fmt.Sprintf("%d", v)
	}
	k := int64(g.r.Intn(int(v))) + 1
	switch g.r.Intn(2) {
	case 0:
		return fmt.Sprintf("(%d + %d)", v-k, k)
	default:
		return fmt.Sprintf("(%d - %d)", v+k, k)
	}
}

// inc renders an increment statement for variable v.
func (g *gen) inc(v string) string {
	switch g.r.Intn(3) {
	case 0:
		return v + "++"
	case 1:
		return v + " += 1"
	default:
		return v + " = " + v + " + 1"
	}
}

// lt renders "a < b" in a random direction.
func (g *gen) lt(a, b string) string {
	if g.r.Intn(2) == 0 {
		return a + " < " + b
	}
	return b + " > " + a
}

// loop renders a counted loop from 0 to limit (exclusive) with the given
// body, choosing among for/while styles. iv must be a fresh name.
func (g *gen) loop(iv, limit, body string) string {
	switch g.r.Intn(3) {
	case 0:
		return fmt.Sprintf("for (int %s = 0; %s; %s) {\n%s\n}", iv, g.lt(iv, limit), g.inc(iv), body)
	case 1:
		return fmt.Sprintf("{ int %s = 0; while (%s) {\n%s\n%s;\n} }", iv, g.lt(iv, limit), body, g.inc(iv))
	default:
		return fmt.Sprintf("for (int %s = 0; %s; %s = %s + 1) {\n%s\n}", iv, g.lt(iv, limit), iv, iv, body)
	}
}

// loopFrom renders a counted loop over [from, to).
func (g *gen) loopFrom(iv, from, to, body string) string {
	if g.r.Intn(2) == 0 {
		return fmt.Sprintf("for (int %s = %s; %s; %s) {\n%s\n}", iv, from, g.lt(iv, to), g.inc(iv), body)
	}
	return fmt.Sprintf("{ int %s = %s; while (%s) {\n%s\n%s;\n} }", iv, from, g.lt(iv, to), body, g.inc(iv))
}

// deadNoise returns an occasional harmless statement.
func (g *gen) deadNoise() string {
	if !g.noise || g.r.Intn(2) == 0 {
		return ""
	}
	t := g.v("tmp")
	return fmt.Sprintf("int %s = %d; %s = %s + %d;\n", t, g.r.Intn(50), t, t, g.r.Intn(9)+1)
}

// fillArray emits code declaring an int array of length n filled with a
// deterministic pseudo-random sequence derived from seed — either as a
// brace initializer or as an LCG fill loop (two very different shapes for
// the same data distribution).
func (g *gen) fillArray(name string, n int, seed int64) string {
	if n <= 16 && g.r.Intn(2) == 0 {
		vals := make([]string, n)
		x := seed
		for i := range vals {
			x = (x*1103515245 + 12345) % 2147483648
			vals[i] = fmt.Sprintf("%d", x%199)
		}
		return fmt.Sprintf("int %s[%d] = {%s};", name, n, strings.Join(vals, ", "))
	}
	iv := g.v("idx")
	sv := g.v("tmp")
	return fmt.Sprintf(
		"int %s[%d];\nint %s = %d;\n%s",
		name, n, sv, seed,
		g.loop(iv, fmt.Sprintf("%d", n),
			fmt.Sprintf("%s = (%s * 1103515245 + 12345) %% 2147483648;\n%s[%s] = %s %% 199;",
				sv, sv, name, iv, sv)))
}

// fillString emits a char array of length n+1 holding a deterministic
// lowercase string plus NUL.
func (g *gen) fillString(name string, n int, seed int64) string {
	iv := g.v("idx")
	sv := g.v("tmp")
	return fmt.Sprintf(
		"char %s[%d];\nint %s = %d;\n%s\n%s[%d] = 0;",
		name, n+1, sv, seed,
		g.loop(iv, fmt.Sprintf("%d", n),
			fmt.Sprintf("%s = (%s * 131 + 7) %% 65536;\n%s[%s] = 'a' + %s %% 26;",
				sv, sv, name, iv, sv)),
		name, n)
}

// wrapMain builds a complete program whose main computes `body` into result
// variable res and returns it (modulo a large prime to keep outputs small).
// Some samples route the computation through a helper function instead —
// the "helper decomposition" variation axis.
func (g *gen) wrapMain(decls, body, result string) string {
	ret := fmt.Sprintf("return %s %% 1000000007;", result)
	if g.r.Intn(3) == 0 {
		fn := g.v("fn")
		return fmt.Sprintf("%s\nint %s() {\n%s\n%s\n}\nint main() {\nreturn %s();\n}\n",
			"", fn, body, ret, fn)
	}
	_ = decls
	return fmt.Sprintf("int main() {\n%s\n%s\n}\n", body, ret)
}

// size picks a problem-size constant in [lo, hi], varying per sample.
func (g *gen) size(lo, hi int) int {
	return lo + g.r.Intn(hi-lo+1)
}

// seed returns a per-sample data seed.
func (g *gen) seed() int64 { return int64(g.r.Intn(9000) + 11) }
