package minic

import (
	"strings"
	"testing"
)

// TestParseNestingLimit: input nested past maxNesting is a parse error, not
// a goroutine stack overflow, and input just inside the limit still parses.
// A statement in main's body sits at level 1; each nested statement,
// parenthesis, unary operand, assignment right-hand side or conditional
// else-branch adds one, and an expression's innermost operand one more.
func TestParseNestingLimit(t *testing.T) {
	parens := func(k int) string {
		return "int main() { return " + strings.Repeat("(", k) + "1" + strings.Repeat(")", k) + "; }"
	}
	negations := func(k int) string {
		return "int main() { return " + strings.Repeat("- ", k) + "1; }"
	}
	assigns := func(k int) string {
		return "int main() { int a; " + strings.Repeat("a = ", k) + "1; return a; }"
	}
	conds := func(k int) string {
		return "int main() { return " + strings.Repeat("1 ? 2 : ", k) + "3; }"
	}
	blocks := func(k int) string {
		return "int main() { " + strings.Repeat("{ ", k) + strings.Repeat("} ", k) + "return 0; }"
	}
	ifs := func(k int) string {
		return "int main() { " + strings.Repeat("if (1) ", k) + "return 1; return 0; }"
	}
	exprUnder, exprOver := maxNesting-2, maxNesting-1
	tests := []struct {
		name    string
		src     string
		wantErr bool
	}{
		{"parens just under", parens(exprUnder), false},
		{"parens just over", parens(exprOver), true},
		{"negations just under", negations(exprUnder), false},
		{"negations just over", negations(exprOver), true},
		{"assignments just under", assigns(exprUnder), false},
		{"assignments just over", assigns(exprOver), true},
		{"conditionals just under", conds(exprUnder), false},
		{"conditionals just over", conds(exprOver), true},
		{"blocks just under", blocks(maxNesting), false},
		{"blocks just over", blocks(maxNesting + 1), true},
		{"ifs just under", ifs(exprUnder), false},
		{"ifs just over", ifs(exprOver), true},
		// 300k parentheses, 600 KB: overflowed the stack before the limit.
		{"600 KB of parens", parens(300000), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, err := Parse(tt.src)
			if tt.wantErr {
				if err == nil {
					t.Fatal("Parse accepted input nested past the limit")
				}
				if !strings.Contains(err.Error(), "nesting deeper than") {
					t.Fatalf("Parse error = %v, want a nesting error", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if _, err := Compile(f, "nest"); err != nil {
				t.Fatalf("Compile: %v", err)
			}
		})
	}
}
