package srcobf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ir"
	"repro/internal/minic"
)

// sameState reports how a and b differ ("" when they are equal): the same
// printed AST, the same step verdicts, and flat views that FlatDiff cannot
// tell apart, with nil on both sides counting as equal.
func sameState(a, b state) string {
	if pa, pb := minic.Print(a.file), minic.Print(b.file); pa != pb {
		return "AST differs:\n--- a\n" + pa + "\n--- b\n" + pb
	}
	if !slices.Equal(a.ok, b.ok) {
		return fmt.Sprintf("verdicts differ: %v vs %v", a.ok, b.ok)
	}
	switch {
	case a.flat == nil && b.flat == nil:
		return ""
	case a.flat == nil || b.flat == nil:
		return "one flat view is nil"
	}
	return ir.FlatDiff(a.flat, b.flat)
}

// TestResumeMatchesReplayFromOrig: a member's tip — built by resuming from
// the previous tip whenever a move only appends a step, or by replaying
// from the original program with the step verdicts inherited from a parent
// (ga children and lone-genome mutations, mcmc drops), compiling only the
// final program — must equal the probed replay of its sequence from the
// original program, which compiles after every step, verdicts included,
// after every generation, for every strategy at population sizes 1 and 3,
// under the default objective and under one that rejects some candidates
// and drifts downward. The original program must come out untouched.
func TestResumeMatchesReplayFromOrig(t *testing.T) {
	set, err := dataset.Generate(2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	// drifting scores every evaluation below the one before, the way a
	// retraining defender keeps moving the target: each drlsg round then
	// finds only worse candidates, so the searcher's working sequence runs
	// ahead of its best File. It also rejects about a third of all
	// programs, so the moves' discard paths (mcmc's skipped proposal, a
	// drlsg round with no valid candidate) run too.
	drifting := func() Objective {
		calls := 0
		return func(fl *ir.Flat) (float64, bool) {
			calls++
			return -float64(calls), len(fl.Instrs)%3 != 0
		}
	}
	objectives := []struct {
		name string
		obj  func() Objective
	}{{"default", func() Objective { return nil }}, {"drifting", drifting}}
	drlsgDiverged := 0
	// Candidates replayed with a non-empty inherited verdict prefix, per
	// strategy and population size: ga/1 counts lone-genome mutations, ga/3
	// crossover children, mcmc/* drops.
	inherited := map[string]int{}
	for _, o := range objectives {
		for si, smp := range set.Samples {
			f, err := minic.Parse(smp.Source)
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range StrategyNames() {
				for _, size := range []int{1, 3} {
					rng := rand.New(rand.NewSource(int64(si + 1)))
					p, err := NewPopulation(f, strat, size, o.obj(), rng)
					if err != nil {
						t.Fatal(err)
					}
					origSrc := minic.Print(p.orig)
					for g := 0; g <= 6; g++ {
						if g > 0 {
							p.Evolve(rng)
						}
						for i := range p.Members {
							m := &p.Members[i]
							if d := sameState(m.tip, probedReplay(state{file: p.orig}, m.Seq)); d != "" {
								t.Fatalf("%s/%s/%d sample %d gen %d member %d: tip is not the probed replay of Seq: %s",
									o.name, strat, size, si, g, i, d)
							}
							if strat == "drlsg" && m.tip.file != m.File {
								drlsgDiverged++
							}
						}
					}
					if got := minic.Print(p.orig); got != origSrc {
						t.Fatalf("%s/%s/%d sample %d: the original program was mutated", o.name, strat, size, si)
					}
					inherited[fmt.Sprintf("%s/%d", strat, size)] += p.inherited
				}
			}
		}
	}
	if drlsgDiverged == 0 {
		t.Fatal("no drlsg member ever had a tip past its best program; the test misses the case it is for")
	}
	for _, k := range []string{"ga/1", "ga/3", "mcmc/1", "mcmc/3"} {
		if inherited[k] == 0 {
			t.Errorf("%s: no candidate inherited a verdict prefix; the test misses the case it is for (counts %v)", k, inherited)
		}
	}
	t.Logf("candidates with inherited verdicts: %v", inherited)
}

// TestReplayFallsBackToProbes: when the program a replay ends at does not
// compile, replay must return what the probed replay returns. Replaying
// from a state whose AST parses but does not compile gets there with no
// test hook: the steps apply, and the final compile fails. Every step's
// probe compile fails too, so the fallback accepts none of them and hands
// back the state it started from.
func TestReplayFallsBackToProbes(t *testing.T) {
	f, err := minic.Parse(`int main() {
	int x = input();
	int s = 0;
	for (int i = 0; i < x; i++) { s += i * 3; }
	while (s > 100) { s = s - 7; }
	return s + missing;
}`)
	if err != nil {
		t.Fatal(err)
	}
	from := state{file: f}
	names := TransformNames()
	rng := rand.New(rand.NewSource(5))
	reached := 0
	for trial := 0; trial < 20; trial++ {
		steps := make([]Step, 6)
		for i := range steps {
			steps[i] = Step{names[rng.Intn(len(names))], rng.Int63()}
		}
		unprobed, _, _ := applySteps(from, steps, nil, false)
		if unprobed == f {
			continue // nothing applied, so there was nothing to compile
		}
		if _, err := minic.Compile(unprobed, "member"); err == nil {
			t.Fatal("the unprobed program compiles; the test misses the case it is for")
		}
		reached++
		got := replay(from, steps, nil)
		if d := sameState(got, probedReplay(from, steps)); d != "" {
			t.Fatalf("trial %d: replay differs from the probed replay: %s", trial, d)
		}
		if d := sameState(got, state{file: f, ok: make([]bool, len(steps))}); d != "" {
			t.Fatalf("trial %d: the fallback accepted a step whose program does not compile: %s", trial, d)
		}
	}
	if reached == 0 {
		t.Fatal("no trial applied a step; the test misses the case it is for")
	}
}
