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
// accepted steps, the flat view of that AST (nil when no step was accepted,
// so file is still the original program), and one verdict per step of the
// sequence from the original program, true where the step was accepted. A
// state's AST and verdicts are never mutated once built — members,
// candidates and the population's original program share them freely,
// every step works on a fresh clone and every replay builds a fresh
// verdict slice.
type state struct {
	file *minic.File
	flat *ir.Flat
	ok   []bool
}

// replay applies steps on top of from. A step that does not apply, or whose
// result no longer compiles, is rejected — the safety net that keeps every
// emitted program valid. The probe compile that validated the last accepted
// step is not thrown away: its flat view is the new state's, so scoring and
// the coevo arena reuse it instead of compiling the same program again.
//
// known holds verdicts already established for a prefix of steps, taken
// from a member whose sequence starts with the same steps: an inherited
// accepted step is cloned and applied but not compiled again, an inherited
// rejected step is skipped. When the last accepted step was inherited, the
// final program is compiled once for its view. An inherited accepted step
// that no longer applies means the verdicts came from another sequence, and
// replay panics.
//
// Because every step sees only the AST before it and its own seed,
// replay(replay(s, a), b) equals replay(s, a+b): a move that appends one
// step resumes from the member's tip instead of replaying the whole
// sequence from the original program.
func replay(from state, steps []Step, known []bool) state {
	cur, flat := from.file, from.flat
	ok := make([]bool, len(from.ok), len(from.ok)+len(steps))
	copy(ok, from.ok)
	var lastMod *ir.Module
	stale := false // the last accepted step was inherited, so flat is stale
	// One generator for the whole replay, reseeded per step: the same
	// stream as a fresh rand.New(rand.NewSource(seed)) without its 4.9 KB.
	var rng *rand.Rand
	for i, st := range steps {
		inherited := i < len(known)
		if inherited && !known[i] {
			ok = append(ok, false)
			continue
		}
		t, err := transformByName(st.Name)
		if err == nil {
			if rng == nil {
				rng = rand.New(rand.NewSource(st.Seed))
			} else {
				rng.Seed(st.Seed)
			}
			cand := cloneFile(cur)
			if t.Apply(cand, rng) {
				if inherited {
					cur, lastMod, stale = cand, nil, true
					ok = append(ok, true)
					continue
				}
				if mod, err := minic.Compile(cand, "member"); err == nil {
					cur, lastMod, stale = cand, mod, false
					ok = append(ok, true)
					continue
				}
			}
		}
		if inherited {
			panic(fmt.Sprintf("srcobf: inherited accepted step %d (%s) no longer applies", i, st.Name))
		}
		ok = append(ok, false)
	}
	if stale {
		mod, err := minic.Compile(cur, "member")
		if err != nil {
			panic(fmt.Sprintf("srcobf: program of inherited accepted steps does not compile: %v", err))
		}
		lastMod = mod
	}
	if lastMod != nil {
		flat = ir.Flatten(lastMod)
	}
	return state{file: cur, flat: flat, ok: ok}
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
