package srcobf

import (
	"fmt"
	"math/rand"

	"repro/internal/ir"
	"repro/internal/minic"
)

// StrategyNames lists the evader strategies, in the paper's naming.
func StrategyNames() []string { return []string{"rs", "mcmc", "drlsg", "ga"} }

// state is where a replayed sequence leaves a program: the AST after its
// accepted steps, the flat view of that AST (nil when no step has been
// accepted since the original program, so file is still the original), and
// one verdict per step of the sequence from the original program, true
// where the step was accepted. A step is accepted when its transform
// applies, which leaves a program that compiles
// (TestTransformsKeepProgramsCompiling). A state's AST and verdicts are
// never mutated once built — members, candidates and the population's
// original program share them freely, every step works on a fresh clone and
// every replay builds a fresh verdict slice.
type state struct {
	file *minic.File
	flat *ir.Flat
	ok   []bool
}

// replay applies steps on top of from without compiling any of them, then
// compiles the final program once, for the new state's flat view; scoring
// and the coevo arena reuse that view instead of compiling the same program
// again. A step that does not apply is rejected.
//
// If the final program does not compile, some transform broke the program
// on an input the property test does not cover (srcobf also runs on
// untrusted sources). replay then replays the same steps with a probe
// compile after each one (probedReplay), which rejects exactly the steps
// that break the program, so every emitted program still compiles.
//
// known holds verdicts already established for a prefix of steps, taken
// from a member whose sequence starts with the same steps: an inherited
// rejected step is skipped, an inherited accepted step is applied again. An
// inherited accepted step that no longer applies means the verdicts came
// from another sequence, and replay panics.
//
// Because every step sees only the AST before it and its own seed,
// replay(replay(s, a), b) equals replay(s, a+b) as long as a program that
// stops compiling is not repaired by a later step: a move that appends one
// step resumes from the member's tip instead of replaying the whole
// sequence from the original program.
func replay(from state, steps []Step, known []bool) state {
	file, ok, _ := applySteps(from, steps, known, false)
	if file == from.file {
		return state{file: file, flat: from.flat, ok: ok}
	}
	mod, err := minic.Compile(file, "member")
	if err != nil {
		return probedReplay(from, steps)
	}
	return state{file: file, flat: ir.Flatten(mod), ok: ok}
}

// probedReplay is replay with a probe compile after every applied step: a
// step is accepted only if its result compiles, and the compile of the last
// accepted step gives the flat view. It is replay's fallback and the
// reference the tests hold replay to.
func probedReplay(from state, steps []Step) state {
	file, ok, mod := applySteps(from, steps, nil, true)
	if mod == nil {
		return state{file: file, flat: from.flat, ok: ok}
	}
	return state{file: file, flat: ir.Flatten(mod), ok: ok}
}

// applySteps applies steps on top of from, each to a fresh clone of the AST
// before it, and returns the final AST and the verdicts from the original
// program on. With probe set, an applied step is accepted only if its
// result compiles, and the module of the last accepted step comes back too.
func applySteps(from state, steps []Step, known []bool, probe bool) (*minic.File, []bool, *ir.Module) {
	cur := from.file
	var mod *ir.Module
	ok := make([]bool, len(from.ok), len(from.ok)+len(steps))
	copy(ok, from.ok)
	// One generator for the whole replay, reseeded per step: the same
	// stream as a fresh rand.New(rand.NewSource(seed)) without its 4.9 KB.
	var rng *rand.Rand
	for i, st := range steps {
		inherited := i < len(known)
		if inherited && !known[i] {
			ok = append(ok, false)
			continue
		}
		accepted := false
		if t, err := transformByName(st.Name); err == nil {
			if rng == nil {
				rng = rand.New(rand.NewSource(st.Seed))
			} else {
				rng.Seed(st.Seed)
			}
			cand := cloneFile(cur)
			if t.Apply(cand, rng) {
				if !probe {
					cur, accepted = cand, true
				} else if m, err := minic.Compile(cand, "member"); err == nil {
					cur, mod, accepted = cand, m, true
				}
			}
		}
		if inherited && !accepted {
			panic(fmt.Sprintf("srcobf: inherited accepted step %d (%s) no longer applies", i, st.Name))
		}
		ok = append(ok, accepted)
	}
	return cur, ok, mod
}

// origFlat compiles the original program once and returns its flat IR view
// — the reference point of the default evasion objective (its histogram is
// the quantity Figure 10 analyzes) and the fallback view score substitutes
// for candidates whose sequences applied no step.
func origFlat(f *minic.File) (*ir.Flat, error) {
	m, err := minic.Compile(f, "orig")
	if err != nil {
		return nil, err
	}
	return ir.Flatten(m), nil
}

// TransformFile applies the named strategy to a parsed program and returns
// the transformed AST. It is the batch (one-shot) entry point: each call
// builds a fresh Population with the strategy's paper-matching budget and
// runs it to completion under the default histogram-distance objective.
//
//	rs     size 1, no Evolve — one random combination of the transform
//	       catalogue (Zhang et al.'s rs draws a single sequence)
//	mcmc   1 chain × 5 generations × 8 Metropolis steps = the batch
//	       walk's 40 steps
//	drlsg  1 searcher × 12 greedy rounds (width 4)
//	ga     8 genomes × 5 generations (tournament/crossover/mutation)
func TransformFile(f *minic.File, strategy string, rng *rand.Rand) (*minic.File, error) {
	var size, gens int
	switch strategy {
	case "rs":
		size, gens = 1, 0
	case "mcmc":
		size, gens = 1, 5
	case "drlsg":
		size, gens = 1, 12
	case "ga":
		size, gens = 8, 5
	default:
		return nil, fmt.Errorf("srcobf: unknown strategy %q", strategy)
	}
	p, err := NewPopulation(f, strategy, size, nil, rng)
	if err != nil {
		return nil, err
	}
	for g := 0; g < gens; g++ {
		p.Evolve(rng)
	}
	return p.Best().File, nil
}

// TransformSource parses, transforms and re-prints MiniC source.
func TransformSource(src, strategy string, rng *rand.Rand) (string, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return "", err
	}
	nf, err := TransformFile(f, strategy, rng)
	if err != nil {
		return "", err
	}
	out := minic.Print(nf)
	if _, err := minic.CompileSource(out, "check"); err != nil {
		return "", fmt.Errorf("srcobf: %s produced uncompilable source: %w", strategy, err)
	}
	return out, nil
}
