package srcobf

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minic"
	"repro/internal/progen"
)

// scopeRows are hand-written programs that lean on MiniC's scoping: a
// scope opens only for a block or a for loop, so a declaration in a switch
// case, or in the unbraced body of an if, while or do-while, stays visible
// after that statement. A rewrite that moves such a declaration into a new
// block must not cut off its later uses.
var scopeRows = []string{
	// used by a later case
	`int main(){ int x = input(); switch (x) { case 0: int y = 1; return y; case 1: y = 2; return y; default: break; } return 0; }`,
	// used after the switch
	`int main(){ int x = input(); switch (x) { case 0: int y = x + 1; y = y * 2; break; default: return 7; } return y; }`,
	// used only inside its case: switch2if still applies
	`int main(){ int x = input(); switch (x) { case 0: int y = x + 1; print(y); break; case 2: return 3; default: break; } return x; }`,
	// the body of a while, used after the loop and in the condition
	`int main(){ int i = input() + 3; while (i > 0) int y = i--; return y; }`,
	`int main(){ int y = 5; while (y > 0) int y = 0; return y; }`,
	// the branches of an if: the else uses the then's declaration, or both
	// declare the name that is used after the if
	`int main(){ int c = input(); if (c) int y = 1; else y = 2; return y; }`,
	`int main(){ int c = input(); if (c) int y = 1; else int y = 2; return y; }`,
	// nested: a case body whose unbraced if declares the name
	`int main(){ int x = input(); switch (x) { case 1: if (x) int z = 4; break; default: break; } return z; }`,
	// the body of a do-while
	`int main(){ int i = input(); do int y = i--; while (y > 0); return y; }`,
}

// TestTransformsKeepProgramsCompiling pins the property replay rests on:
// a transform that applies to a program that compiles leaves a program
// that compiles. Every program of the table gets 40 random transforms in a
// chain, each applied to the result of the one before, and is compiled
// after every step that applied. Every transform must apply somewhere.
func TestTransformsKeepProgramsCompiling(t *testing.T) {
	set, err := dataset.Generate(len(dataset.Problems()), 1, 12345)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		name string
		src  string
	}
	var rows []row
	for i := int64(1); i <= 50; i++ {
		rows = append(rows, row{fmt.Sprintf("progen/%d", i), progen.GenerateSeed(i)})
	}
	for i, s := range set.Samples {
		rows = append(rows, row{fmt.Sprintf("dataset/%d", i), s.Source})
	}
	for _, b := range dataset.BenchGame() {
		rows = append(rows, row{"benchgame/" + b.Name, b.Source})
	}
	for i, src := range scopeRows {
		rows = append(rows, row{fmt.Sprintf("scope/%d", i), src})
	}
	const chain = 40
	applied := map[string]int{}
	for ri, r := range rows {
		f, err := minic.Parse(r.src)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if _, err := minic.Compile(f, "property"); err != nil {
			t.Fatalf("%s does not compile to begin with: %v", r.name, err)
		}
		rng := rand.New(rand.NewSource(int64(ri + 1)))
		for k := 0; k < chain; k++ {
			tf := transforms[rng.Intn(len(transforms))]
			g := cloneFile(f)
			if !tf.Apply(g, rand.New(rand.NewSource(rng.Int63()))) {
				continue
			}
			if _, err := minic.Compile(g, "property"); err != nil {
				t.Fatalf("%s step %d: %s left a program that does not compile: %v\n--- before\n%s\n--- after\n%s",
					r.name, k, tf.Name, err, minic.Print(f), minic.Print(g))
			}
			applied[tf.Name]++
			f = g
		}
	}
	total := 0
	for _, tf := range transforms {
		if applied[tf.Name] == 0 {
			t.Errorf("%s never applied; the table misses it", tf.Name)
		}
		total += applied[tf.Name]
	}
	t.Logf("%d programs, %d applied steps: %v", len(rows), total, applied)
}

// TestSwitch2IfSkipsOnlyLeakingCases: switch2if leaves a switch alone when
// a case body declares a name used outside it, and still rewrites one whose
// declarations are used only inside their case.
func TestSwitch2IfSkipsOnlyLeakingCases(t *testing.T) {
	for i, want := range []bool{false, false, true} {
		f, err := minic.Parse(scopeRows[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := tfSwitch2If(f, rand.New(rand.NewSource(1))); got != want {
			t.Errorf("scope row %d: switch2if applied = %v, want %v\n%s", i, got, want, minic.Print(f))
		}
	}
}
