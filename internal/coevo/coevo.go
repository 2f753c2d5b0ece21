// Package coevo is the online adversarial arena: persistent evader
// populations (srcobf.Population) co-evolve against a defending classifier
// that is incrementally retrained, each generation, on the evasions it
// failed to catch. The paper's games are batch — train once, evade once,
// tally the matrix; this package makes the game streaming, so the Red
// Queen question (does the dynamic converge or cycle?) becomes runnable.
//
// One generation:
//
//  1. every attacker population Evolves under an objective that rewards
//     both moving away from the original program's embedding and flipping
//     the CURRENT defender's verdict,
//  2. the defender classifies every member; misclassified members are the
//     generation's evasions,
//  3. both sides' Elo ratings absorb the generation as one rating block
//     (an evasion is an attacker win, a catch a defender win),
//  4. the defender warm-start retrains on the cumulative pool (base
//     training set + all distinct evasions so far) and is checkpointed
//     via the GOMLSNAP lineage codec — if the retrain regresses on a
//     held-out set beyond Tolerance, the previous checkpoint is rolled
//     back (the pool keeps the evasions; only the weights revert),
//  5. the accepted snapshot is optionally pushed to a serving fleet over
//     the PUT /v1/models hot-swap path.
//
// The loop is deterministic for a fixed seed at any worker count: all
// per-population randomness is pre-derived sequentially from the master
// RNG before any parallel fan-out, and results merge in population order.
// Only the RetrainNS timings vary run over run (reported as volatile).
package coevo

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/ml"
	"repro/internal/progcache"
	"repro/internal/srcobf"
	"repro/internal/stats"
)

// evadedBonus dominates any histogram distance, so the objective is
// lexicographic: evading the live defender first, moving far second.
const evadedBonus = 1e6

// Pusher delivers an accepted generation snapshot to a serving fleet.
// Implementations live with the caller (cmd/arena pushes over HTTP).
type Pusher interface {
	Push(model string, snapshot []byte, gen int64) error
}

// Config parameterizes one arena run. Zero values take the defaults noted.
type Config struct {
	// Set is the labelled corpus; split into defender training set, holdout
	// (rollback gate) and attack pool (population seeds).
	Set *dataset.Set
	// Embedding is the vector embedding both sides fight in (default
	// "histogram").
	Embedding string
	// Model names the defending classifier (default "lr"). Models
	// implementing ml.WarmFitter retrain incrementally; others re-fit cold
	// on the cumulative pool.
	Model string
	// Strategy names the evader strategy every population runs (one of
	// srcobf.StrategyNames; default "ga").
	Strategy string
	// Attackers is the number of evader populations, each rooted at one
	// attack-pool program (default 4, clamped to the pool).
	Attackers int
	// PopSize is the member count per population (default 4).
	PopSize int
	// Generations is the number of arena rounds (default 5).
	Generations int
	// TrainFrac is the defender's training split (default 0.5; the rest is
	// halved into holdout and attack pool).
	TrainFrac float64
	// Tolerance is how much holdout accuracy a retrain may lose before the
	// generation's checkpoint is rolled back (default 0.02).
	Tolerance float64
	// EloK is the rating gain per block update (default stats.EloK).
	EloK float64
	// Seed drives everything; fixed seed => identical run at any Workers.
	Seed int64
	// Workers bounds the parallel fan-outs (0 = GOMAXPROCS).
	Workers int
	// Push, when non-nil, receives every accepted generation snapshot.
	Push Pusher
	// SnapshotDir, when set, receives per-generation checkpoint files
	// (<model>.gen<N>.snap).
	SnapshotDir string
}

// GenerationResult is the manifest-facing record of one arena round.
type GenerationResult struct {
	Gen         int     // 1-based generation number
	EvasionRate float64 // evaded members / total members
	AttackerElo float64 // rating after this generation's block update
	DefenderElo float64
	HoldoutAcc  float64 // post-retrain holdout accuracy (pre-rollback value)
	Diversity   float64 // mean pairwise member distance, averaged over populations
	NewEvasions int     // distinct new evasions absorbed into the pool
	RolledBack  bool    // retrain regressed beyond Tolerance and was reverted
	Version     int64   // snapshot generation the defender serves after this round
	RetrainNS   int64   // wall time of the retrain (volatile; 0 when skipped)
}

// Result is a finished arena run.
type Result struct {
	BaselineAcc float64 // holdout accuracy of the generation-0 defender
	Generations []GenerationResult
	// FinalSnapshot is the last accepted checkpoint (lineage-stamped).
	FinalSnapshot []byte
	FinalVersion  int64
}

// attacker is one population plus the fixed facts about its root program.
type attacker struct {
	pop       *srcobf.Population
	trueClass int
	origVec   embed.Vector // root program's embedding (objective reference)
}

// arena carries the mutable run state between generations.
type arena struct {
	cfg   Config
	emb   *embed.Embedding
	model ml.Model

	trainX [][]float64
	trainY []int
	holdX  [][]float64
	holdY  []int

	attackers []*attacker

	poolX [][]float64 // cumulative evasion pool appended to trainX
	poolY []int
	seen  map[string]bool // dedupe key over evasion vectors

	version  int64  // accepted snapshot generation (1 = initial fit)
	lastGood []byte // last accepted snapshot frame
	lastAcc  float64

	attElo float64 // zero until the first block update (EloInitial)
	defElo float64
}

// Run executes the configured co-evolution arena.
func Run(cfg Config) (*Result, error) {
	a, err := newArena(&cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{BaselineAcc: a.lastAcc}
	if err := a.emit(0); err != nil {
		return nil, err
	}
	master := rand.New(rand.NewSource(cfg.Seed + 1000003))
	for gen := 1; gen <= cfg.Generations; gen++ {
		gr, err := a.generation(gen, master)
		if err != nil {
			return nil, fmt.Errorf("coevo: generation %d: %w", gen, err)
		}
		res.Generations = append(res.Generations, *gr)
	}
	res.FinalSnapshot = a.lastGood
	res.FinalVersion = a.version
	return res, nil
}

func newArena(cfg *Config) (*arena, error) {
	if cfg.Set == nil || len(cfg.Set.Samples) == 0 {
		return nil, fmt.Errorf("coevo: empty dataset")
	}
	if cfg.Embedding == "" {
		cfg.Embedding = "histogram"
	}
	if cfg.Model == "" {
		cfg.Model = "lr"
	}
	if cfg.Strategy == "" {
		cfg.Strategy = "ga"
	}
	if cfg.Attackers <= 0 {
		cfg.Attackers = 4
	}
	if cfg.PopSize <= 0 {
		cfg.PopSize = 4
	}
	if cfg.Generations <= 0 {
		cfg.Generations = 5
	}
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		cfg.TrainFrac = 0.5
	}
	if cfg.Tolerance < 0 {
		cfg.Tolerance = 0
	} else if cfg.Tolerance == 0 {
		cfg.Tolerance = 0.02
	}
	if cfg.EloK <= 0 {
		cfg.EloK = stats.EloK
	}
	emb, err := embed.Get(cfg.Embedding)
	if err != nil {
		return nil, err
	}
	if emb.Kind != embed.VectorKind {
		return nil, fmt.Errorf("coevo: embedding %q is graph-shaped; the arena takes vector embeddings", cfg.Embedding)
	}
	found := false
	for _, s := range srcobf.StrategyNames() {
		if s == cfg.Strategy {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("coevo: unknown strategy %q", cfg.Strategy)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	train, rest := cfg.Set.Split(cfg.TrainFrac, rng)
	if len(train) == 0 || len(rest) < 2 {
		return nil, fmt.Errorf("coevo: dataset too small to split (train %d, rest %d)", len(train), len(rest))
	}
	hold, attack := rest[:len(rest)/2], rest[len(rest)/2:]

	a := &arena{cfg: *cfg, emb: emb, seen: make(map[string]bool)}
	if a.trainX, a.trainY, err = a.featurize(train); err != nil {
		return nil, err
	}
	if a.holdX, a.holdY, err = a.featurize(hold); err != nil {
		return nil, err
	}

	n := cfg.Attackers
	if n > len(attack) {
		n = len(attack)
	}
	for i := 0; i < n; i++ {
		smp := attack[i]
		f, err := minic.Parse(smp.Source)
		if err != nil {
			return nil, fmt.Errorf("coevo: attack program %d: %w", i, err)
		}
		vec, err := core.EmbedSource(progcache.Default, smp.Source, cfg.Embedding)
		if err != nil {
			return nil, err
		}
		// Population init draws from the master stream (sequential, so the
		// setup is worker-count independent too).
		pop, err := srcobf.NewPopulation(f, cfg.Strategy, cfg.PopSize, nil, rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			return nil, err
		}
		a.attackers = append(a.attackers, &attacker{pop: pop, trueClass: smp.Class, origVec: vec})
	}

	m, err := ml.New(cfg.Model, rand.New(rand.NewSource(cfg.Seed+7)))
	if err != nil {
		return nil, err
	}
	if err := m.Fit(a.trainX, a.trainY, cfg.Set.NumClasses); err != nil {
		return nil, err
	}
	a.model = m
	a.lastAcc = a.holdoutAcc()
	a.version = 1
	var buf bytes.Buffer
	if err := ml.SaveLineage(&buf, m, ml.Lineage{Generation: 1}); err != nil {
		return nil, err
	}
	a.lastGood = buf.Bytes()
	return a, nil
}

// featurize embeds every sample through the shared progcache, in parallel,
// results merged by index.
func (a *arena) featurize(samples []dataset.Sample) ([][]float64, []int, error) {
	X := make([][]float64, len(samples))
	y := make([]int, len(samples))
	errs := make([]error, len(samples))
	core.ForEach(a.cfg.Workers, len(samples), func(i int) {
		v, err := core.EmbedSource(progcache.Default, samples[i].Source, a.cfg.Embedding)
		if err != nil {
			errs[i] = err
			return
		}
		X[i] = v
		y[i] = samples[i].Class
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return X, y, nil
}

func (a *arena) holdoutAcc() float64 {
	hit := 0
	for i, x := range a.holdX {
		if a.model.Predict(x) == a.holdY[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(a.holdX))
}

// emit writes the current accepted snapshot to SnapshotDir and the pusher.
// gen 0 is the initial fit.
func (a *arena) emit(gen int) error {
	if a.cfg.SnapshotDir != "" {
		if err := os.MkdirAll(a.cfg.SnapshotDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(a.cfg.SnapshotDir, fmt.Sprintf("%s.gen%03d.snap", a.cfg.Model, gen))
		if err := os.WriteFile(path, a.lastGood, 0o644); err != nil {
			return err
		}
	}
	if a.cfg.Push != nil {
		if err := a.cfg.Push.Push(a.cfg.Model, a.lastGood, a.version); err != nil {
			return fmt.Errorf("coevo: push gen %d: %w", gen, err)
		}
	}
	return nil
}

// popOutcome is one population's generation outcome, computed inside the
// parallel fan-out and merged in population order.
type popOutcome struct {
	vecs   []embed.Vector // member embeddings, in member order
	evaded []bool
	divSum float64 // pairwise distance sum
	divCnt int
}

func (a *arena) generation(gen int, master *rand.Rand) (*GenerationResult, error) {
	// Pre-derive the per-population seeds SEQUENTIALLY from the master
	// stream; this is the whole determinism contract — the parallel part
	// below only consumes private RNGs.
	seeds := make([]int64, len(a.attackers))
	for i := range seeds {
		seeds[i] = master.Int63()
	}

	// The objective closes over the defender as it stands at generation
	// start; the retrain below happens strictly after every Evolve returns.
	model := a.model
	outcomes := make([]*popOutcome, len(a.attackers))
	core.ForEach(a.cfg.Workers, len(a.attackers), func(i int) {
		at := a.attackers[i]
		orig, class := at.origVec, at.trueClass
		at.pop.SetObjective(func(fl *ir.Flat) (float64, bool) {
			v := a.emb.VecFlat(fl)
			s := embed.Distance(orig, v)
			if model.Predict(v) != class {
				s += evadedBonus
			}
			return s, true
		})
		at.pop.Evolve(rand.New(rand.NewSource(seeds[i])))
		out := &popOutcome{}
		for mi := range at.pop.Members {
			// Evolve leaves every member carrying the flat view from its
			// last scoring, so the verdict pass below costs no compiles.
			fl := at.pop.Members[mi].Flat
			if fl == nil {
				var err error
				fl, err = srcobf.FlatView(at.pop.Members[mi].File)
				if err != nil {
					// srcobf's replay keeps only steps whose result
					// compiles, so members always compile; a failure here
					// is a bug, not a data condition — surface as a miss.
					out.vecs = append(out.vecs, nil)
					out.evaded = append(out.evaded, false)
					continue
				}
			}
			v := a.emb.VecFlat(fl)
			out.vecs = append(out.vecs, v)
			out.evaded = append(out.evaded, model.Predict(v) != class)
		}
		for x := 0; x < len(out.vecs); x++ {
			for y := x + 1; y < len(out.vecs); y++ {
				if out.vecs[x] != nil && out.vecs[y] != nil {
					out.divSum += embed.Distance(out.vecs[x], out.vecs[y])
					out.divCnt++
				}
			}
		}
		outcomes[i] = out
	})

	// Merge in population order: verdicts, diversity, and the evasion pool.
	gr := &GenerationResult{Gen: gen}
	evaded, total := 0, 0
	divSum, divPops := 0.0, 0
	for i, out := range outcomes {
		at := a.attackers[i]
		for mi, ev := range out.evaded {
			total++
			if !ev {
				continue
			}
			evaded++
			key := vecKey(out.vecs[mi], at.trueClass)
			if !a.seen[key] {
				a.seen[key] = true
				a.poolX = append(a.poolX, out.vecs[mi])
				a.poolY = append(a.poolY, at.trueClass)
				gr.NewEvasions++
			}
		}
		if out.divCnt > 0 {
			divSum += out.divSum / float64(out.divCnt)
			divPops++
		}
	}
	if total > 0 {
		gr.EvasionRate = float64(evaded) / float64(total)
	}
	if divPops > 0 {
		gr.Diversity = divSum / float64(divPops)
	}

	// One generation = one Elo rating block: every member plays the
	// defender once; an evasion is an attacker win.
	attPrev, defPrev := a.attackerElo(), a.defenderElo()
	gr.AttackerElo = stats.EloUpdate(attPrev, defPrev, float64(evaded), total, a.cfg.EloK)
	gr.DefenderElo = stats.EloUpdate(defPrev, attPrev, float64(total-evaded), total, a.cfg.EloK)
	a.setElo(gr.AttackerElo, gr.DefenderElo)

	// Retrain on the cumulative pool when this generation taught us
	// anything new; checkpoint, gate on the holdout, roll back on
	// regression.
	gr.Version = a.version
	gr.HoldoutAcc = a.lastAcc
	if gr.NewEvasions > 0 {
		X := append(append([][]float64{}, a.trainX...), a.poolX...)
		y := append(append([]int{}, a.trainY...), a.poolY...)
		start := time.Now()
		var err error
		if wf, ok := a.model.(ml.WarmFitter); ok {
			err = wf.FitWarm(X, y, a.cfg.Set.NumClasses)
		} else {
			err = a.model.Fit(X, y, a.cfg.Set.NumClasses)
		}
		gr.RetrainNS = time.Since(start).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("retrain: %w", err)
		}
		acc := a.holdoutAcc()
		gr.HoldoutAcc = acc
		if acc < a.lastAcc-a.cfg.Tolerance {
			// Regression: restore the last accepted checkpoint. The pool
			// keeps the evasions — the next generation may absorb them from
			// a healthier direction.
			m, _, err := ml.LoadLineage(bytes.NewReader(a.lastGood))
			if err != nil {
				return nil, fmt.Errorf("rollback: %w", err)
			}
			a.model = m
			gr.RolledBack = true
		} else {
			prev := a.version
			a.version++
			var buf bytes.Buffer
			if err := ml.SaveLineage(&buf, a.model, ml.Lineage{Generation: a.version, Parent: prev}); err != nil {
				return nil, err
			}
			a.lastGood = buf.Bytes()
			a.lastAcc = acc
			gr.Version = a.version
			if err := a.emit(gen); err != nil {
				return nil, err
			}
		}
	}
	return gr, nil
}

// Elo state lives on the arena between generations.
func (a *arena) attackerElo() float64 {
	if a.attElo == 0 {
		return stats.EloInitial
	}
	return a.attElo
}

func (a *arena) defenderElo() float64 {
	if a.defElo == 0 {
		return stats.EloInitial
	}
	return a.defElo
}

func (a *arena) setElo(att, def float64) { a.attElo, a.defElo = att, def }

// vecKey builds the dedupe key for one evasion: the exact bit pattern of
// its feature vector plus its true class.
func vecKey(v []float64, class int) string {
	b := make([]byte, 0, len(v)*8+4)
	for _, x := range v {
		bits := math.Float64bits(x)
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(bits>>s))
		}
	}
	return fmt.Sprintf("%d|%s", class, b)
}
