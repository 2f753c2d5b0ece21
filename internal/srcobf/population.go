package srcobf

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/minic"
)

// This file is the online face of the four evader strategies: the same
// search moves TransformFile runs once per call, promoted into persistent
// populations with explicit state (members, step sequences) that an
// adversarial arena can evolve generation by generation against a changing
// objective — e.g. a classifier that retrains on the evasions it catches.

// Step is one element of a transformation sequence: a named transform plus
// the seed of the private RNG it is applied with, so sequences replay
// deterministically from the original program.
type Step struct {
	Name string
	Seed int64
}

// Objective scores a candidate program (higher is better) from its flat IR
// view; ok=false marks the candidate invalid (it is discarded). Objectives
// may change between generations — Evolve re-scores every member under the
// current objective before proposing moves, so scores stay comparable.
type Objective func(fl *ir.Flat) (score float64, ok bool)

// Member is one individual of a population: a transformation sequence, the
// program it denotes and that program's score under the population's
// objective at the last evaluation.
//
// What Seq/File track is strategy-specific: for rs and drlsg they are the
// best candidate found so far (monotone within a generation), for mcmc the
// chain's current state (the walk may move downhill), and for ga the
// member's current genome.
type Member struct {
	Seq   []Step
	File  *minic.File
	Score float64
	// Flat is the cached flat IR view of File, carried over from the
	// compile that ended the replay which built it (or rebuilt at the last
	// scoring). It is nil only when File never compiled; consumers that need
	// a view unconditionally fall back to FlatView.
	Flat *ir.Flat

	// tip is the replay of Seq: the state a move that appends one step
	// resumes from. For drlsg it runs ahead of File, because the working
	// sequence always advances while File only improves.
	tip state
}

// Population is the persistent state of one evader strategy attacking one
// program. Evolve advances every member by one generation; all randomness
// flows through the rng passed to Evolve, so a population is deterministic
// for a fixed seed sequence regardless of how many sibling populations run
// concurrently.
type Population struct {
	Strategy string
	Members  []Member

	orig     *minic.File
	origHist embed.Vector
	origView *ir.Flat
	obj      Objective

	// inherited counts the candidates replayed with a non-empty verdict
	// prefix, so tests can tell that the moves which inherit did.
	inherited int
}

// Per-generation search budgets. One Evolve call costs at most
// len(Members) * (budget) objective evaluations.
const (
	mcmcStepsPerGen = 8
	mcmcTemperature = 2.0
	drlsgWidth      = 4
	gaMutationRate  = 0.4
	rsMinSeq        = 5
)

// FlatView compiles f and returns its immutable flat IR view (the input
// Objective consumes). Compiling leaves f untouched, so it stays shareable
// and replayable.
func FlatView(f *minic.File) (*ir.Flat, error) {
	m, err := minic.Compile(f, "member")
	if err != nil {
		return nil, err
	}
	return ir.Flatten(m), nil
}

// NewPopulation builds a size-member population of the named strategy
// around program f, evaluating every initial member under obj (nil = the
// default objective, opcode-histogram distance from the original program —
// the quantity the batch strategies maximize). The original program must
// compile.
func NewPopulation(f *minic.File, strategy string, size int, obj Objective, rng *rand.Rand) (*Population, error) {
	found := false
	for _, s := range StrategyNames() {
		if s == strategy {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("srcobf: unknown strategy %q", strategy)
	}
	if size < 1 {
		return nil, fmt.Errorf("srcobf: population size must be >= 1, got %d", size)
	}
	orig := cloneFile(f)
	ofl, err := origFlat(orig)
	if err != nil {
		return nil, fmt.Errorf("srcobf: original program does not compile: %w", err)
	}
	p := &Population{Strategy: strategy, orig: orig, origHist: embed.HistogramFlat(ofl), origView: ofl}
	p.SetObjective(obj)
	names := TransformNames()
	for i := 0; i < size; i++ {
		var m Member
		switch strategy {
		case "rs", "ga":
			// Seeded with a random sequence: rs members hill-climb from it,
			// ga members are the initial genomes.
			m.Seq = p.randSeq(names, rng)
		default:
			// mcmc chains and drlsg searchers start at the original program.
		}
		m.tip = p.fromOrig(m.Seq, nil)
		m.File = m.tip.file
		m.Score, m.Flat = p.score(m.File, m.tip.flat)
		p.Members = append(p.Members, m)
	}
	return p, nil
}

// SetObjective swaps the scoring function (nil restores the default
// histogram-distance objective). Member scores are not recomputed here;
// Evolve re-scores at entry.
func (p *Population) SetObjective(obj Objective) {
	if obj == nil {
		orig := p.origHist
		obj = func(fl *ir.Flat) (float64, bool) {
			return embed.Distance(orig, embed.HistogramFlat(fl)), true
		}
	}
	p.obj = obj
}

// score evaluates a candidate AST under the current objective, reusing the
// caller's flat view when one is on hand and compiling only when it is not.
// Invalid candidates (failed compile or objective rejection) score negative
// infinity so every valid program beats them. The view that fed the
// objective comes back so callers can cache it on the member.
func (p *Population) score(f *minic.File, fl *ir.Flat) (float64, *ir.Flat) {
	if fl == nil {
		// A nil view from replay means no step was accepted, so f is the
		// original program — its precomputed view is exact and saves
		// recompiling the same source for every such member.
		fl = p.origView
	}
	if fl == nil {
		var err error
		fl, err = FlatView(f)
		if err != nil {
			return math.Inf(-1), nil
		}
	}
	s, ok := p.obj(fl)
	if !ok {
		return math.Inf(-1), fl
	}
	return s, fl
}

// fromOrig replays seq from the original program: the move for candidates
// that do not extend a member's sequence (rs restarts, mcmc drops, ga
// children). known is the verdict prefix the candidate inherits from the
// member its leading steps came from (nil when it inherits none).
func (p *Population) fromOrig(seq []Step, known []bool) state {
	if len(known) > 0 {
		p.inherited++
	}
	return replay(state{file: p.orig}, seq, known)
}

// randSeq draws a fresh random sequence the way the batch rs strategy does:
// a shuffled prefix of the transform catalogue, at least rsMinSeq long.
func (p *Population) randSeq(names []string, rng *rand.Rand) []Step {
	shuffled := append([]string(nil), names...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	k := rsMinSeq + rng.Intn(len(shuffled)-rsMinSeq+1)
	seq := make([]Step, 0, k)
	for _, n := range shuffled[:k] {
		seq = append(seq, Step{n, rng.Int63()})
	}
	return seq
}

// Best returns the highest-scoring member (ties resolve to the lowest
// index, so the result is deterministic).
func (p *Population) Best() *Member {
	bi := 0
	for i := range p.Members {
		if p.Members[i].Score > p.Members[bi].Score {
			bi = i
		}
	}
	return &p.Members[bi]
}

// Evolve advances the population one generation under the current
// objective. Members are first re-scored (the objective may have changed
// since the last generation), then each strategy makes its moves:
//
//	rs     every member proposes a fresh random sequence and keeps it only
//	       on improvement (independent restart hill-climbers)
//	mcmc   every member runs mcmcStepsPerGen Metropolis steps of its own
//	       chain (add/drop a step, accept uphill or with exp(delta/T))
//	drlsg  every member greedily extends its sequence with the best of
//	       drlsgWidth candidate actions, keeping the best program so far
//	ga     one generation of tournament selection, one-point crossover and
//	       mutation over the member genomes, with elitism
//
// All randomness comes from rng; members are processed in index order, so
// Evolve is deterministic for a fixed seed.
func (p *Population) Evolve(rng *rand.Rand) {
	for i := range p.Members {
		m := &p.Members[i]
		m.Score, m.Flat = p.score(m.File, m.Flat)
	}
	names := TransformNames()
	switch p.Strategy {
	case "rs":
		for i := range p.Members {
			m := &p.Members[i]
			seq := p.randSeq(names, rng)
			st := p.fromOrig(seq, nil)
			if s, fl := p.score(st.file, st.flat); s > m.Score {
				m.Seq, m.tip, m.File, m.Score, m.Flat = seq, st, st.file, s, fl
			}
		}
	case "mcmc":
		for i := range p.Members {
			p.mcmcSteps(&p.Members[i], names, rng)
		}
	case "drlsg":
		for i := range p.Members {
			p.drlsgRound(&p.Members[i], names, rng)
		}
	case "ga":
		p.gaGeneration(names, rng)
	}
}

// mcmcSteps advances one Metropolis chain mcmcStepsPerGen steps. An
// add-step move resumes from the chain's tip; a drop-step move changes the
// middle of the sequence and replays it from the original program,
// inheriting the verdicts of the steps before the dropped one.
func (p *Population) mcmcSteps(m *Member, names []string, rng *rand.Rand) {
	for s := 0; s < mcmcStepsPerGen; s++ {
		var cand []Step
		var st state
		if len(m.Seq) > 3 && rng.Float64() < 0.25 {
			j := rng.Intn(len(m.Seq))
			cand = append(append([]Step(nil), m.Seq[:j]...), m.Seq[j+1:]...)
			st = p.fromOrig(cand, m.tip.ok[:j])
		} else {
			cand = append(append([]Step(nil), m.Seq...), Step{names[rng.Intn(len(names))], rng.Int63()})
			st = replay(m.tip, cand[len(cand)-1:], nil)
		}
		sc, cfl := p.score(st.file, st.flat)
		if math.IsInf(sc, -1) {
			continue
		}
		delta := sc - m.Score
		if delta >= 0 || rng.Float64() < math.Exp(delta/mcmcTemperature) {
			m.Seq, m.tip, m.File, m.Score, m.Flat = cand, st, st.file, sc, cfl
		}
	}
}

// drlsgRound extends one greedy searcher by its best candidate action; the
// member keeps the best program seen so far. Every candidate appends one
// step to the working sequence, so each resumes from the member's tip.
func (p *Population) drlsgRound(m *Member, names []string, rng *rand.Rand) {
	type cand struct {
		seq   []Step
		st    state
		score float64
		flat  *ir.Flat
	}
	var top *cand
	for w := 0; w < drlsgWidth; w++ {
		c := append(append([]Step(nil), m.Seq...), Step{names[rng.Intn(len(names))], rng.Int63()})
		st := replay(m.tip, c[len(c)-1:], nil)
		s, fl := p.score(st.file, st.flat)
		if math.IsInf(s, -1) {
			continue
		}
		if top == nil || s > top.score {
			top = &cand{c, st, s, fl}
		}
	}
	if top == nil {
		return
	}
	// The working sequence always advances (greedy commitment); File/Score
	// only improve.
	m.Seq, m.tip = top.seq, top.st
	if top.score >= m.Score {
		m.File, m.Score, m.Flat = top.st.file, top.score, top.flat
	}
}

// gaGeneration runs one generation of the genetic strategy over the whole
// member set: elitism, tournament selection, one-point crossover, mutation.
// A child inherits the step verdicts of the parent its leading steps come
// from, up to the crossover cut and the mutated index.
func (p *Population) gaGeneration(names []string, rng *rand.Rand) {
	n := len(p.Members)
	if n == 1 {
		// A lone genome cannot cross over; mutate it hill-climbing style.
		m := &p.Members[0]
		cand := append([]Step(nil), m.Seq...)
		var known []bool
		if len(cand) == 0 {
			cand = p.randSeq(names, rng)
		} else {
			k := rng.Intn(len(cand))
			cand[k] = Step{names[rng.Intn(len(names))], rng.Int63()}
			known = m.tip.ok[:k]
		}
		st := p.fromOrig(cand, known)
		if s, fl := p.score(st.file, st.flat); s > m.Score {
			m.Seq, m.tip, m.File, m.Score, m.Flat = cand, st, st.file, s, fl
		}
		return
	}
	tournament := func() int {
		a, b := rng.Intn(n), rng.Intn(n)
		if p.Members[a].Score >= p.Members[b].Score {
			return a
		}
		return b
	}
	next := make([]Member, 0, n)
	next = append(next, *p.Best())
	for len(next) < n {
		pa, pb := &p.Members[tournament()], &p.Members[tournament()]
		child, ca, cb := crossover(pa.Seq, pb.Seq, rng)
		known := pa.tip.ok[:ca]
		if ca == 0 && cb == 0 {
			known = pb.tip.ok // the child is pb unchanged
		}
		if len(child) == 0 {
			child, known = p.randSeq(names, rng), nil
		} else if rng.Float64() < gaMutationRate {
			k := rng.Intn(len(child))
			child[k] = Step{names[rng.Intn(len(names))], rng.Int63()}
			known = known[:min(k, len(known))]
		}
		st := p.fromOrig(child, known)
		s, fl := p.score(st.file, st.flat)
		next = append(next, Member{Seq: child, File: st.file, Score: s, Flat: fl, tip: st})
	}
	p.Members = next
}

// crossover splices two parent sequences at one point each, tolerating
// unequal lengths (the arena's sequences grow at different rates). It
// returns the child and the cuts: the child is pa[:ca] followed by pb[cb:].
func crossover(pa, pb []Step, rng *rand.Rand) (child []Step, ca, cb int) {
	if len(pa) > 0 {
		ca = rng.Intn(len(pa) + 1)
	}
	if len(pb) > 0 {
		cb = rng.Intn(len(pb) + 1)
	}
	return append(append([]Step(nil), pa[:ca]...), pb[cb:]...), ca, cb
}
