package minic_test

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/minic"
)

// run compiles and executes src, returning the result.
func run(t *testing.T, src string) *interp.Result {
	t.Helper()
	mod, err := minic.CompileSource(src, "test")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := interp.Run(mod, interp.Options{})
	if err != nil {
		t.Fatalf("run: %v\nIR:\n%s", err, mod.String())
	}
	return res
}

func wantRet(t *testing.T, src string, want int64) {
	t.Helper()
	res := run(t, src)
	if res.Ret != want {
		t.Fatalf("ret = %d, want %d", res.Ret, want)
	}
}

func wantOutput(t *testing.T, src, want string) {
	t.Helper()
	res := run(t, src)
	if res.Output != want {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

func TestReturnConstant(t *testing.T) {
	wantRet(t, "int main() { return 42; }", 42)
}

func TestArithmetic(t *testing.T) {
	wantRet(t, "int main() { return 2 + 3 * 4 - 10 / 2; }", 9)
	wantRet(t, "int main() { return 17 % 5; }", 2)
	wantRet(t, "int main() { return (1 << 6) | 3; }", 67)
	wantRet(t, "int main() { return 255 & 15; }", 15)
	wantRet(t, "int main() { return 12 ^ 10; }", 6)
	wantRet(t, "int main() { return -8 >> 1; }", -4)
	wantRet(t, "int main() { return ~0; }", -1)
	wantRet(t, "int main() { return -(5); }", -5)
}

func TestVariablesAndAssignment(t *testing.T) {
	wantRet(t, "int main() { int x = 5; int y; y = x + 2; return y; }", 7)
	wantRet(t, "int main() { int x = 10; x += 5; x -= 3; x *= 2; x /= 4; return x; }", 6)
	wantRet(t, "int main() { int x = 7; x %= 4; return x; }", 3)
	wantRet(t, "int main() { int x = 6; x &= 3; x |= 8; x ^= 1; return x; }", 11)
	wantRet(t, "int main() { int x = 1; x <<= 4; x >>= 2; return x; }", 4)
}

func TestIncDec(t *testing.T) {
	wantRet(t, "int main() { int x = 5; int y = x++; return x * 10 + y; }", 65)
	wantRet(t, "int main() { int x = 5; int y = ++x; return x * 10 + y; }", 66)
	wantRet(t, "int main() { int x = 5; int y = x--; return x * 10 + y; }", 45)
	wantRet(t, "int main() { int x = 5; int y = --x; return x * 10 + y; }", 44)
}

func TestIfElse(t *testing.T) {
	wantRet(t, "int main() { if (3 > 2) return 1; else return 2; }", 1)
	wantRet(t, "int main() { if (2 > 3) return 1; else return 2; }", 2)
	wantRet(t, "int main() { int x = 0; if (1) x = 5; return x; }", 5)
	wantRet(t, `int main() {
		int a = 10;
		if (a > 100) return 1;
		else if (a > 5) return 2;
		else return 3;
	}`, 2)
}

func TestWhileLoop(t *testing.T) {
	wantRet(t, `int main() {
		int i = 0; int s = 0;
		while (i < 10) { s += i; i++; }
		return s;
	}`, 45)
}

func TestForLoop(t *testing.T) {
	wantRet(t, `int main() {
		int s = 0;
		for (int i = 1; i <= 10; i++) s += i;
		return s;
	}`, 55)
	wantRet(t, `int main() {
		int s = 0; int i = 0;
		for (; i < 5;) { s += 2; i++; }
		return s;
	}`, 10)
}

func TestDoWhile(t *testing.T) {
	wantRet(t, `int main() {
		int i = 10; int n = 0;
		do { n++; i++; } while (i < 5);
		return n;
	}`, 1)
}

func TestBreakContinue(t *testing.T) {
	wantRet(t, `int main() {
		int s = 0;
		for (int i = 0; i < 100; i++) {
			if (i == 5) break;
			if (i % 2 == 0) continue;
			s += i;
		}
		return s;
	}`, 4) // 1 + 3
}

func TestNestedLoops(t *testing.T) {
	wantRet(t, `int main() {
		int c = 0;
		for (int i = 0; i < 4; i++)
			for (int j = 0; j < 3; j++)
				c++;
		return c;
	}`, 12)
}

func TestSwitch(t *testing.T) {
	src := `int classify(int x) {
		switch (x) {
		case 1: return 10;
		case 2: return 20;
		case 3:
		case 4: return 34;
		default: return -1;
		}
	}
	int main() {
		return classify(1)*1000 + classify(3)*10 + classify(9);
	}`
	wantRet(t, src, 10000+340-1)
}

func TestSwitchFallthrough(t *testing.T) {
	wantRet(t, `int main() {
		int r = 0;
		switch (2) {
		case 1: r += 1;
		case 2: r += 2;
		case 3: r += 4;
			break;
		case 4: r += 8;
		}
		return r;
	}`, 6)
}

func TestFunctionsAndRecursion(t *testing.T) {
	wantRet(t, `
	int fib(int n) {
		if (n < 2) return n;
		return fib(n-1) + fib(n-2);
	}
	int main() { return fib(12); }`, 144)
}

func TestMutualRecursion(t *testing.T) {
	wantRet(t, `
	int isOdd(int n);
	int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }
	int isOdd(int n) { if (n == 0) return 0; return isEven(n - 1); }
	int main() { return isEven(10)*10 + isOdd(7); }`, 11)
}

func TestArrays(t *testing.T) {
	wantRet(t, `int main() {
		int a[5];
		for (int i = 0; i < 5; i++) a[i] = i * i;
		int s = 0;
		for (int i = 0; i < 5; i++) s += a[i];
		return s;
	}`, 30)
}

func TestArrayInitializer(t *testing.T) {
	wantRet(t, `int main() {
		int a[4] = {3, 1, 4, 1};
		return a[0]*1000 + a[1]*100 + a[2]*10 + a[3];
	}`, 3141)
}

func TestMultiDimArray(t *testing.T) {
	wantRet(t, `int main() {
		int m[3][3];
		for (int i = 0; i < 3; i++)
			for (int j = 0; j < 3; j++)
				m[i][j] = i * 3 + j;
		int tr = 0;
		for (int i = 0; i < 3; i++) tr += m[i][i];
		return tr;
	}`, 12)
}

func TestArrayParameter(t *testing.T) {
	wantRet(t, `
	int sum(int a[], int n) {
		int s = 0;
		for (int i = 0; i < n; i++) s += a[i];
		return s;
	}
	int main() {
		int a[4] = {1, 2, 3, 4};
		return sum(a, 4);
	}`, 10)
}

func TestMatrixParameter(t *testing.T) {
	wantRet(t, `
	int diag(int m[][3], int n) {
		int s = 0;
		for (int i = 0; i < n; i++) s += m[i][i];
		return s;
	}
	int main() {
		int m[3][3] = {1, 0, 0, 0, 2, 0, 0, 0, 3};
		return diag(m, 3);
	}`, 6)
}

func TestPointers(t *testing.T) {
	wantRet(t, `int main() {
		int x = 10;
		int *p = &x;
		*p = 20;
		return x + *p;
	}`, 40)
	wantRet(t, `
	void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
	int main() {
		int x = 1; int y = 2;
		swap(&x, &y);
		return x * 10 + y;
	}`, 21)
}

func TestPointerArithmetic(t *testing.T) {
	wantRet(t, `int main() {
		int a[3] = {7, 8, 9};
		int *p = a;
		p++;
		return *p + *(p + 1);
	}`, 17)
}

func TestGlobals(t *testing.T) {
	wantRet(t, `
	int counter = 100;
	int table[3] = {5, 6, 7};
	void bump() { counter += table[1]; }
	int main() { bump(); bump(); return counter; }`, 112)
}

func TestFloats(t *testing.T) {
	wantRet(t, `int main() {
		float x = 2.5;
		float y = x * 4.0;
		return (int)y;
	}`, 10)
	wantRet(t, `int main() {
		float s = 0.0;
		for (int i = 1; i <= 4; i++) s += 1.0 / i;
		return (int)(s * 1000.0);
	}`, 2083)
}

func TestFloatIntMixing(t *testing.T) {
	wantRet(t, "int main() { return (int)(3 / 2.0 * 4); }", 6)
	wantRet(t, "int main() { float f = 7; int i = f + 0.5; return i; }", 7)
}

func TestMathBuiltins(t *testing.T) {
	wantRet(t, "int main() { return (int)sqrt(144.0); }", 12)
	wantRet(t, "int main() { return (int)fabs(-3.5 * 2.0); }", 7)
	wantRet(t, "int main() { return (int)pow(2.0, 10.0); }", 1024)
	wantRet(t, "int main() { return abs(-42); }", 42)
	wantRet(t, "int main() { return (int)floor(3.9); }", 3)
}

func TestChars(t *testing.T) {
	wantRet(t, "int main() { char c = 'A'; return c + 1; }", 66)
	wantRet(t, `int main() {
		char s[6];
		s[0] = 'h'; s[1] = 'i'; s[2] = 0;
		int n = 0;
		while (s[n]) n++;
		return n;
	}`, 2)
}

func TestLogicalOps(t *testing.T) {
	wantRet(t, "int main() { return (1 && 2) + (0 && 1)*10 + (0 || 3)*100 + (0 || 0)*1000; }", 101)
	// Short-circuit: the second operand must not run.
	wantRet(t, `
	int g = 0;
	int bump() { g = 1; return 1; }
	int main() {
		int r = 0 && bump();
		return g * 10 + r;
	}`, 0)
	wantRet(t, `
	int g = 0;
	int bump() { g = 1; return 1; }
	int main() {
		int r = 1 || bump();
		return g * 10 + r;
	}`, 1)
}

func TestTernary(t *testing.T) {
	wantRet(t, "int main() { int x = 7; return x > 5 ? 100 : 200; }", 100)
	wantRet(t, "int main() { int x = 3; return x > 5 ? 100 : 200; }", 200)
	wantRet(t, "int main() { return 1 ? 2 ? 3 : 4 : 5; }", 3)
}

func TestPrint(t *testing.T) {
	wantOutput(t, `int main() { print(42); return 0; }`, "42\n")
	wantOutput(t, `int main() { prints("hello"); return 0; }`, "hello")
	wantOutput(t, `int main() { printc('x'); printc('\n'); return 0; }`, "x\n")
}

func TestInput(t *testing.T) {
	mod, err := minic.CompileSource(`int main() {
		int a = input();
		int b = input();
		return a * b;
	}`, "test")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := interp.Run(mod, interp.Options{Input: []int64{6, 7}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Ret != 42 {
		t.Fatalf("ret = %d, want 42", res.Ret)
	}
}

func TestCommentsAndPreprocessor(t *testing.T) {
	wantRet(t, `
	#include <stdio.h>
	// line comment
	/* block
	   comment */
	int main() { return 5; } // trailing`, 5)
}

func TestVoidFunction(t *testing.T) {
	wantRet(t, `
	int g;
	void set(int v) { g = v; return; }
	void set2(int v) { g = v; }
	int main() { set(3); set2(g + 4); return g; }`, 7)
}

func TestImplicitReturn(t *testing.T) {
	wantRet(t, "int main() { int x = 5; }", 0)
}

func TestDeadCodeAfterReturn(t *testing.T) {
	wantRet(t, `int main() {
		return 1;
		return 2;
	}`, 1)
}

func TestConstGlobal(t *testing.T) {
	wantRet(t, `
	const int N = 6;
	int main() { return N * 7; }`, 42)
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"int main() { return x; }",                // undefined variable
		"int main() { foo(); }",                   // undefined function
		"int main() { break; }",                   // break outside loop
		"int main() { continue; }",                // continue outside loop
		"int f() { return 1; }",                   // no main
		"int main() { int x = 1; int",             // truncated
		"int main() { return 1 +; }",              // bad expression
		"int main() { 3 = 4; }",                   // not an lvalue
		"int main() { int a[2]; return a[0](); }", // parse error
		"void main2(; }",                          // garbage
		"int main() { prints(1, 2); }",            // wrong arity
	}
	for _, src := range bad {
		if _, err := minic.CompileSource(src, "bad"); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestPrintRoundTrip(t *testing.T) {
	src := `
	int fact(int n);
	int g = 3;
	int fact(int n) {
		if (n <= 1) return 1;
		return n * fact(n - 1);
	}
	int main() {
		int a[3] = {1, 2, 3};
		int s = 0;
		for (int i = 0; i < 3; i++) {
			s += a[i] * fact(i + 1);
		}
		while (s > 100) { s -= 10; }
		do { s++; } while (s < 0);
		switch (s % 3) {
		case 0: s += g; break;
		default: s -= g;
		}
		float f = 1.5;
		char c = 'z';
		s += (int)f + c - c;
		return s > 0 && s < 1000 ? s : -s;
	}`
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	printed := minic.Print(f)
	f2, err := minic.Parse(printed)
	if err != nil {
		t.Fatalf("reparse printed source: %v\n%s", err, printed)
	}
	printed2 := minic.Print(f2)
	if printed != printed2 {
		t.Fatalf("printer not idempotent:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
	// Behaviour must match between original and round-tripped source.
	m1, err := minic.Compile(f, "a")
	if err != nil {
		t.Fatalf("compile original: %v", err)
	}
	m2, err := minic.Compile(f2, "b")
	if err != nil {
		t.Fatalf("compile roundtrip: %v", err)
	}
	r1, err := interp.Run(m1, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := interp.Run(m2, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ret != r2.Ret || r1.Output != r2.Output {
		t.Fatalf("round trip changed behaviour: %d/%q vs %d/%q", r1.Ret, r1.Output, r2.Ret, r2.Output)
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := minic.LexAll(`int x = 0x10; float f = 1.5e2; char c = '\n'; x <<= 2;`)
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	var kinds []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Text)
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, "<<=") {
		t.Fatalf("compound operator not lexed as one token: %s", joined)
	}
	// 1.5e2 must be a float token with value 150.
	found := false
	for _, tk := range toks {
		if tk.Kind == minic.TokFloat && tk.FloatVal == 150 {
			found = true
		}
	}
	if !found {
		t.Fatal("scientific float literal not decoded")
	}
}

func TestStepCounting(t *testing.T) {
	res := run(t, `int main() {
		int s = 0;
		for (int i = 0; i < 100; i++) s += i;
		return s;
	}`)
	if res.Steps < 100 {
		t.Fatalf("steps = %d, expected at least one per loop iteration", res.Steps)
	}
}
