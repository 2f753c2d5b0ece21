package minic_test

import (
	"testing"

	"repro/internal/minic"
)

// FuzzParser feeds arbitrary byte strings through the lexer and parser,
// which must return errors rather than panic. The seed corpus under
// testdata/fuzz covers every statement and expression form; plain `go test`
// replays it, `go test -fuzz FuzzParser` explores mutations.
func FuzzParser(f *testing.F) {
	for _, s := range parserSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := minic.Parse(src)
		if err != nil {
			return
		}
		// A successfully parsed file must also print.
		_ = minic.Print(file)
	})
}

// FuzzRoundTrip checks the printer/parser contract on every input the
// parser accepts: Print must re-parse, and Print∘Parse must be a fixpoint.
func FuzzRoundTrip(f *testing.F) {
	for _, s := range parserSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		f1, err := minic.Parse(src)
		if err != nil {
			return
		}
		p1 := minic.Print(f1)
		f2, err := minic.Parse(p1)
		if err != nil {
			t.Fatalf("printed source no longer parses: %v\n%s", err, p1)
		}
		if p2 := minic.Print(f2); p1 != p2 {
			t.Fatalf("printer not a fixpoint:\n%s\nvs\n%s", p1, p2)
		}
	})
}

// parserSeeds covers the language surface: one entry per construct family.
var parserSeeds = []string{
	"int main() { return 0; }",
	"int g = 3; int main() { return g; }",
	"int a[4] = {1, 2, 3, 4}; int main() { a[0] = a[3]; return a[0]; }",
	"struct p { int x; int y; }; int main() { struct p v; v.x = 1; return v.x + v.y; }",
	"int f(int *q) { *q = *q + 1; return *q; } int main() { int v = 2; return f(&v); }",
	"float h(float x) { return x * 1.5; } int main() { float f = h(2.0); return (int)f; }",
	"int main() { for (int i = 0; i < 3; i++) { print(i); } return 0; }",
	"int main() { int t = 0; while (t < 5) { t = t + 1; } return t; }",
	"int main() { int d = 0; do { d++; } while (d < 2); return d; }",
	"int main() { int x = 2; switch (x) { case 0: return 9; case 2: { x = 7; } break; default: x = 1; } return x; }",
	"int main() { int x = -4; return x < 0 ? - x : x; }",
	"int main() { char c = 'q'; printc(c); prints(\"hi\"); return c; }",
	"int main() { int m[2][3]; m[1][2] = 5; return m[1][2]; }",
	"int main() { int x = 1; x += 2; x <<= 1; x ^= 3; return x % 7; }",
	"int rec(int n) { if (n <= 0) { return 1; } return n * rec(n - 1); } int main() { return rec(5); }",
	"int main() { if (1 && 0 || !0) { return 1; } else { return 2; } }",
	"int main() { break; }",      // parses or errors, must not panic
	"int main() { return",        // truncated input
	"struct s { int",             // truncated struct
	"int main() { int x = 08; }", // odd literal
	"\x00\xff{{{",                // garbage bytes
}
