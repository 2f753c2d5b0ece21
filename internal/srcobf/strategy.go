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
// accepted steps, and the flat view of the probe compile that accepted the
// last of them (nil when no step was accepted, so file is still the
// original program). A state's AST is never mutated once built — members,
// candidates and the population's original program share ASTs freely, and
// every step works on a fresh clone.
type state struct {
	file *minic.File
	flat *ir.Flat
}

// replay applies steps on top of from. A step whose result no longer
// compiles is skipped — the safety net that keeps every emitted program
// valid. The probe compile that validated the last accepted step is not
// thrown away: its flat view is the new state's, so scoring and the coevo
// arena reuse it instead of compiling the same program again.
//
// Because every step sees only the AST before it and its own seed,
// replay(replay(s, a), b) equals replay(s, a+b): a move that appends one
// step resumes from the member's tip instead of replaying the whole
// sequence from the original program.
func replay(from state, steps []Step) state {
	cur := from.file
	var lastMod *ir.Module
	for _, st := range steps {
		t, err := transformByName(st.Name)
		if err != nil {
			continue
		}
		cand := cloneFile(cur)
		if !t.Apply(cand, rand.New(rand.NewSource(st.Seed))) {
			continue
		}
		mod, err := minic.Compile(cand, "member")
		if err != nil {
			continue
		}
		cur, lastMod = cand, mod
	}
	if lastMod == nil {
		return state{file: cur, flat: from.flat}
	}
	return state{file: cur, flat: ir.Flatten(lastMod)}
}

// origFlat compiles the original program once and returns its flat IR view
// — the reference point of the default evasion objective (its histogram is
// the quantity Figure 10 analyzes) and the fallback view score substitutes
// for candidates whose sequences applied no step.
func origFlat(f *minic.File) (*ir.Flat, error) {
	m, err := minic.Compile(cloneFile(f), "orig")
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
