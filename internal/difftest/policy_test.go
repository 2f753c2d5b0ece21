package difftest

import (
	"strings"
	"testing"

	"repro/internal/vm"
)

// TestEquivalentPolicyTable pins the documented trap-equivalence policy at
// the observation level, one row per clause.
func TestEquivalentPolicyTable(t *testing.T) {
	cases := []struct {
		name    string
		oracle  Obs
		got     Obs
		verdict Verdict
	}{
		{"identical clean runs",
			Obs{Ret: 3, Out: "1\n2\n"}, Obs{Ret: 3, Out: "1\n2\n"}, Equal},
		{"same output different exit value",
			Obs{Ret: 3, Out: "1\n"}, Obs{Ret: 4, Out: "1\n"}, Mismatch},
		{"same exit value different output",
			Obs{Ret: 3, Out: "1\n"}, Obs{Ret: 3, Out: "2\n"}, Mismatch},
		{"clean oracle must not trap after transform",
			Obs{Ret: 0, Out: ""}, Obs{Trap: "div0"}, Mismatch},
		{"clean oracle, transform introduced nontermination",
			Obs{Ret: 0, Out: "x\n"}, Obs{Trap: "budget", Out: "x\n"}, Mismatch},
		{"trapping oracle, trap removed, output extended",
			Obs{Trap: "div0", Out: "7\n"}, Obs{Ret: 0, Out: "7\n8\n"}, TrapSkipped},
		{"trapping oracle, trap reordered before output",
			Obs{Trap: "div0", Out: "7\n"}, Obs{Trap: "div0", Out: ""}, TrapSkipped},
		{"trapping oracle, different trap kind",
			Obs{Trap: "div0", Out: ""}, Obs{Trap: "mem", Out: ""}, TrapSkipped},
		{"trapping oracle, divergent output",
			Obs{Trap: "div0", Out: "7\n"}, Obs{Ret: 0, Out: "9\n"}, Mismatch},
		{"trapping oracle never counts as equal",
			Obs{Trap: "div0", Out: "7\n"}, Obs{Trap: "div0", Out: "7\n"}, TrapSkipped},
	}
	for _, tc := range cases {
		if v, detail := Equivalent(tc.oracle, tc.got); v != tc.verdict {
			t.Errorf("%s: verdict %s (want %s) detail=%s", tc.name, v, tc.verdict, detail)
		}
	}
}

// deadTrapSrc guards a division by a variable that SCCP can prove zero: the
// trapping instruction is statically unreachable, and the O2/O3 pipelines
// are entitled to delete it outright.
const deadTrapSrc = `int main() {
  int x = 0;
  int y = 9;
  if (x != 0) {
    y = y / x;
    print(y);
  }
  print(y);
  return 0;
}
`

// guardedTrapSrc runs a loop whose body divides by n only when n is
// nonzero; n stays zero, so the division never executes. Hoisting it out of
// the guard (the classic LICM overreach) would trap.
const guardedTrapSrc = `int main() {
  int n = 0;
  int s = 0;
  for (int i = 0; i < 5; i++) {
    if (n > 0) {
      s += 100 / n;
    }
  }
  print(s);
  return 0;
}
`

// realTrapSrc actually divides by zero after producing output, giving a
// trapping oracle with a nonempty stdout prefix.
const realTrapSrc = `int main() {
  int x = 0;
  print(7);
  return 1 / x;
}
`

// TestTrapSemanticsUnderOptimization pins the policy end to end: transforms
// may delete or reorder traps but never change clean behaviour.
func TestTrapSemanticsUnderOptimization(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		transform string
		// accept lists the admissible verdicts for this cell.
		accept []Verdict
	}{
		// The unreachable trapping division must not stop DCE or the
		// pipelines from preserving the clean run bit-for-bit.
		{"dce keeps clean run with dead trapping division", deadTrapSrc, "dce", []Verdict{Equal}},
		{"sccp folds the dead guard", deadTrapSrc, "sccp", []Verdict{Equal}},
		{"O2 may delete the dead trapping division", deadTrapSrc, "O2", []Verdict{Equal}},
		{"O3 may delete the dead trapping division", deadTrapSrc, "O3", []Verdict{Equal}},

		// LICM must not hoist the guarded division: the oracle completes,
		// so a hoisted (trapping) division would be a Mismatch.
		{"licm leaves guarded division in place", guardedTrapSrc, "licm", []Verdict{Equal}},
		{"O3 preserves the guarded division", guardedTrapSrc, "O3", []Verdict{Equal}},

		// A genuinely trapping program: transforms may keep the trap,
		// change its kind, or remove it — all TrapSkipped, never Equal.
		{"trapping oracle under O2", realTrapSrc, "O2", []Verdict{TrapSkipped}},
		{"trapping oracle under sccp", realTrapSrc, "sccp", []Verdict{TrapSkipped}},
		{"trapping oracle under ollvm", realTrapSrc, "ollvm", []Verdict{TrapSkipped}},
	}
	for _, tc := range cases {
		trs, err := Transforms(tc.transform)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		v, detail, err := CheckOne(tc.src, trs[0], 1, vm.Engine{})
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		ok := false
		for _, a := range tc.accept {
			if v == a {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s: verdict %s (accept %v) detail=%s", tc.name, v, tc.accept, detail)
		}
	}
}

// TestTrapKindsObserved pins the oracle-side trap classification for the
// kinds a MiniC program can actually reach.
func TestTrapKindsObserved(t *testing.T) {
	cases := []struct {
		name, src, kind string
	}{
		{"division by zero", realTrapSrc, "div0"},
		{"out of bounds", "int main() { int a[3]; int i = 9; a[0] = 1; return a[i * 3]; }", "mem"},
		{"infinite loop hits budget", "int main() { int x = 1; while (x) { x = x + 1; } return 0; }", "budget"},
		{"unbounded recursion overflows stack", "int f(int n) { return f(n + 1); } int main() { return f(0); }", "stack"},
	}
	for _, tc := range cases {
		oracle, err := Oracle(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if oracle.Trap != tc.kind {
			t.Errorf("%s: trap kind %q, want %q", tc.name, oracle.Trap, tc.kind)
		}
	}
}

// TestOracleRejectsBadSource keeps the generator-bug path honest: source
// that does not compile must surface as an error, not a verdict.
func TestOracleRejectsBadSource(t *testing.T) {
	if _, err := Oracle("int main( {"); err == nil ||
		!strings.Contains(err.Error(), "oracle compile") {
		t.Fatalf("err = %v, want oracle compile error", err)
	}
}
