package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/progcache"
	"repro/internal/stats"
)

// Per-phase span timers in the process-wide obs registry. Spans observed
// from concurrent rounds all accumulate, so totals are CPU-style time (the
// same convention the harness footer has always printed); run manifests
// and -debug-addr read them live.
var (
	phaseFeaturize = obs.GetTimer("phase.featurize")
	phaseEmbed     = obs.GetTimer("phase.embed")
	phaseFit       = obs.GetTimer("phase.fit")
	phasePredict   = obs.GetTimer("phase.predict")
	phaseTrain     = obs.GetTimer("phase.train")
	phaseExec      = obs.GetTimer("phase.exec")
	phaseRounds    = obs.GetCounter("phase.rounds")
)

// Pipeline is one classifier configuration: a program embedding, a
// stochastic model and (for Game 3) a code normalizer.
type Pipeline struct {
	Embedding  string
	Model      string
	Normalizer passes.Level // O0 = no normalization
}

// GameConfig configures one adversarial game (Definition 2.4 / Figure 1).
type GameConfig struct {
	// Game is 0..3.
	Game int
	// Evader is the transformation available to the evader (games 1-3);
	// ignored in Game 0.
	Evader string
	// Pipeline is the classifier.
	Pipeline Pipeline
	// TrainFrac is the training split (the paper uses 375/500 = 0.75).
	// Zero means "use the default 0.75"; any other value outside (0, 1)
	// is rejected.
	TrainFrac float64
	// Seed drives the split, the evader and the model initialization.
	Seed int64
}

// GameResult is the outcome of one game round.
type GameResult struct {
	Accuracy    float64
	F1          float64
	NumTrain    int
	NumTest     int
	ModelMemory int64
	// FeaturizeTime and TrainTime are the wall-clock phase timings of the
	// round (compile+transform+embed vs. model fit+predict), surfaced so
	// harnesses can report where the time goes.
	FeaturizeTime time.Duration
	TrainTime     time.Duration
}

// featurized holds one sample's embedding (vector or graph).
type featurized struct {
	vec   embed.Vector
	graph *embed.Graph
	label int
	err   error
}

// RunGame plays one round of the configured game over the dataset.
func RunGame(set *dataset.Set, cfg GameConfig) (*GameResult, error) {
	if cfg.Game < 0 || cfg.Game > 3 {
		return nil, fmt.Errorf("core: game must be 0..3, got %d", cfg.Game)
	}
	if cfg.TrainFrac == 0 {
		cfg.TrainFrac = 0.75
	}
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		return nil, fmt.Errorf("core: TrainFrac must be in (0, 1), got %v", cfg.TrainFrac)
	}
	if cfg.Game >= 1 {
		if err := ValidateEvader(cfg.Evader); err != nil {
			return nil, err
		}
	}
	emb, err := embed.Get(cfg.Pipeline.Embedding)
	if err != nil {
		return nil, err
	}
	if emb.Kind == embed.GraphKind && cfg.Pipeline.Model != "dgcnn" {
		return nil, fmt.Errorf("core: graph embedding %q requires the dgcnn model", emb.Name)
	}
	if emb.Kind == embed.VectorKind && cfg.Pipeline.Model == "dgcnn" {
		return nil, fmt.Errorf("core: dgcnn requires a graph embedding, %q is a vector", emb.Name)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	train, test := set.Split(cfg.TrainFrac, rng)

	// Decide the transformation each side sees (Figure 1).
	trainTransform, testTransform := "none", "none"
	normalizeTrain, normalizeTest := false, false
	switch cfg.Game {
	case 0:
		// passive evader, untouched training set
	case 1:
		testTransform = cfg.Evader
	case 2:
		trainTransform = cfg.Evader
		testTransform = cfg.Evader
	case 3:
		testTransform = cfg.Evader
		normalizeTrain = cfg.Pipeline.Normalizer != passes.O0
		normalizeTest = normalizeTrain
	}

	featStart := time.Now()
	trainFeats, err := featurize(train, trainTransform, normalizeTrain, cfg.Pipeline.Normalizer, emb, rng)
	if err != nil {
		return nil, err
	}
	testFeats, err := featurize(test, testTransform, normalizeTest, cfg.Pipeline.Normalizer, emb, rng)
	if err != nil {
		return nil, err
	}

	res := &GameResult{NumTrain: len(train), NumTest: len(test)}
	res.FeaturizeTime = time.Since(featStart)
	phaseFeaturize.Observe(res.FeaturizeTime)
	trainStart := time.Now()
	truth := make([]int, len(testFeats))
	pred := make([]int, len(testFeats))
	for i, f := range testFeats {
		truth[i] = f.label
	}

	// Both branches predict in parallel: trained models are read-only at
	// prediction time.
	if emb.Kind == embed.GraphKind {
		model := ml.NewDGCNN(rand.New(rand.NewSource(rng.Int63())))
		gs := make([]*embed.Graph, len(trainFeats))
		ys := make([]int, len(trainFeats))
		for i, f := range trainFeats {
			gs[i] = f.graph
			ys[i] = f.label
		}
		fitDone := phaseFit.Start()
		if err := model.FitGraphs(gs, ys, set.NumClasses); err != nil {
			return nil, err
		}
		fitDone()
		predictDone := phasePredict.Start()
		ForEach(0, len(testFeats), func(i int) {
			pred[i] = model.PredictGraph(testFeats[i].graph)
		})
		predictDone()
		res.ModelMemory = model.MemoryBytes()
	} else {
		model, err := ml.New(cfg.Pipeline.Model, rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			return nil, err
		}
		X := make([][]float64, len(trainFeats))
		ys := make([]int, len(trainFeats))
		for i, f := range trainFeats {
			X[i] = f.vec
			ys[i] = f.label
		}
		fitDone := phaseFit.Start()
		if err := model.Fit(X, ys, set.NumClasses); err != nil {
			return nil, err
		}
		fitDone()
		predictDone := phasePredict.Start()
		ForEach(0, len(testFeats), func(i int) {
			pred[i] = model.Predict(testFeats[i].vec)
		})
		predictDone()
		res.ModelMemory = model.MemoryBytes()
	}
	res.TrainTime = time.Since(trainStart)
	phaseTrain.Observe(res.TrainTime)
	phaseRounds.Inc()
	res.Accuracy, err = stats.Accuracy(pred, truth)
	if err != nil {
		return nil, fmt.Errorf("core: scoring game %d: %w", cfg.Game, err)
	}
	res.F1 = stats.MacroF1(pred, truth, set.NumClasses)
	return res, nil
}

// ClampWorkers bounds a requested worker count to the n units of work
// available: non-positive requests mean GOMAXPROCS, and the result is
// always in [1, n] — except n <= 0, which returns 0 (no work, spawn
// nothing). Every parallel site in the harness sizes its pool through this
// one function, most of them by way of ForEach, so the edge cases stay
// uniform.
func ClampWorkers(workers, n int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// ForEach calls fn(i) for every i in [0, n) on ClampWorkers(workers, n)
// goroutines, each claiming the next unclaimed index, so callers that want
// the longest jobs started first put them at the lowest indices. With at
// most one worker it runs inline on the caller. fn must write its result
// only to slot i; the output then cannot depend on the worker count or the
// completion order.
func ForEach(workers, n int, fn func(i int)) {
	workers = ClampWorkers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// featurize compiles, transforms, optionally normalizes and embeds every
// sample, in parallel, with per-sample deterministic randomness.
func featurize(samples []dataset.Sample, transform string, normalize bool,
	norm passes.Level, emb *embed.Embedding, rng *rand.Rand) ([]featurized, error) {

	seeds := make([]int64, len(samples))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	out := make([]featurized, len(samples))
	ForEach(0, len(samples), func(i int) {
		out[i] = featurizeOne(samples[i], transform, normalize, norm, emb, seeds[i])
	})
	for i := range out {
		if out[i].err != nil {
			return nil, fmt.Errorf("core: sample %d: %w", i, out[i].err)
		}
	}
	return out, nil
}

func featurizeOne(s dataset.Sample, transform string, normalize bool,
	norm passes.Level, emb *embed.Embedding, seed int64) featurized {

	f := featurized{label: s.Class}
	var fl *ir.Flat
	if !normalize && (transform == "" || transform == "none" || transform == "O0") {
		// The passive evader with no normalizer leaves the module exactly
		// as compiled, and embeddings only read it — so every round and
		// every worker can share the one cached flat view, skipping the
		// front end, the thaw and the flatten.
		var err error
		fl, err = progcache.CompileFlat(s.Source, "prog")
		if err != nil {
			f.err = err
			return f
		}
	} else {
		m, err := Transform(s.Source, transform, rand.New(rand.NewSource(seed)))
		if err != nil {
			f.err = err
			return f
		}
		if normalize {
			if err := Normalize(m, norm); err != nil {
				f.err = err
				return f
			}
		}
		fl = ir.Flatten(m)
	}
	embedStart := time.Now()
	if emb.Kind == embed.GraphKind {
		f.graph = emb.GraphFlat(fl)
	} else {
		f.vec = emb.VecFlat(fl)
	}
	phaseEmbed.Observe(time.Since(embedStart))
	return f
}

// RunRoundsN repeats the game the given number of rounds (the paper uses
// ten), varying the seed, and returns the per-round results plus accuracy
// summary. Rounds run in parallel on workers goroutines (0 or negative
// means GOMAXPROCS). Each round derives its seed from the round index —
// cfg.Seed + r*7919, byte-identical to the historical serial derivation —
// so the results do not depend on the worker count or completion order.
func RunRoundsN(set *dataset.Set, cfg GameConfig, rounds int, workers int) ([]GameResult, stats.Summary, error) {
	if rounds < 1 {
		return nil, stats.Summary{}, fmt.Errorf("core: rounds must be >= 1, got %d", rounds)
	}
	results := make([]GameResult, rounds)
	errs := make([]error, rounds)
	ForEach(workers, rounds, func(r int) {
		c := cfg
		c.Seed = cfg.Seed + int64(r)*7919
		res, err := RunGame(set, c)
		if err != nil {
			errs[r] = err
			return
		}
		results[r] = *res
	})
	for _, err := range errs {
		if err != nil {
			return nil, stats.Summary{}, err
		}
	}
	accs := make([]float64, rounds)
	for r := range results {
		accs[r] = results[r].Accuracy
	}
	return results, stats.Summarize(accs), nil
}
