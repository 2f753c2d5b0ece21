package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/ml"
	"repro/internal/obfus"
	"repro/internal/passes"
	"repro/internal/progcache"
	"repro/internal/srcobf"
	"repro/internal/stats"
)

// gameConfigs is one round per paper figure the games workload covers, at
// the 8-class, 12-per-class scale bench_test.go uses for Figs. 8, 9 and 11.
var gameConfigs = []core.GameConfig{
	{Game: 0, Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"}},
	{Game: 0, Pipeline: core.Pipeline{Embedding: "cfg_compact", Model: "dgcnn"}},
	{Game: 1, Evader: "ollvm", Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"}},
	{Game: 1, Evader: "mcmc", Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"}},
	{Game: 2, Evader: "bcf", Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"}},
	{Game: 3, Evader: "fla", Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf", Normalizer: passes.O3}},
	{Game: 3, Evader: "rs", Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf", Normalizer: passes.O3}},
}

// dgcnnConfig indexes the graph round, whose training set the parallel-fit
// measurement reuses.
const dgcnnConfig = 1

// runGames plays a closed loop of game rounds, one cycle through
// gameConfigs at a time. core.RunGame already featurizes and predicts on
// GOMAXPROCS goroutines; running two cycles side by side made the rounds
// compete for the two cores, and which rounds met moved a run's figures by
// a third. Every cycle replays the same seven (config, seed)
// rounds, so a reference pass on the other path gives each round's
// accuracy in advance: untraced runs check core.RunGame against the
// decomposition, traced runs the decomposition against core.RunGame. The
// round seeds follow core.RunRoundsN's derivation from seed 1.
func runGames(o options) (*outcome, error) {
	var set *dataset.Set
	setup, err := timeSetup(func() error {
		progcache.Reset()
		var err error
		set, err = dataset.Generate(8, 12, corpusSeed)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	cfgs := make([]core.GameConfig, len(gameConfigs))
	for i, c := range gameConfigs {
		c.Seed = 1 + int64(i)*7919
		cfgs[i] = c
	}
	library := func(i int, _ *opTrace) (float64, error) {
		res, err := core.RunGame(set, cfgs[i])
		if err != nil {
			return 0, err
		}
		return res.Accuracy, nil
	}
	decomposed := func(i int, ot *opTrace) (float64, error) { return playRound(set, cfgs[i], ot) }
	measured, reference := library, decomposed
	var tr *tracer
	if o.trace {
		measured, reference = decomposed, library
		tr = newTracer()
	}

	loop, untraced, _, err := runOps(o, tr, len(cfgs), 1, measured, reference,
		func(a, b float64) bool { return a == b })
	if err != nil {
		return nil, err
	}
	out := &outcome{
		setup:      setup,
		attempted:  loop.attempted,
		failed:     loop.failed,
		good:       loop.attempted - loop.failed,
		elapsed:    loop.busy,
		lat:        loop.lat,
		win:        loop.win,
		rssMB:      median(loop.rss),
		tr:         tr,
		untracedOp: untraced,
	}
	if o.trace {
		speedup, err := fitSpeedup(set, cfgs[dgcnnConfig])
		if err != nil {
			return nil, err
		}
		out.layer = map[string]float64{"ml.fit_speedup_nproc": speedup}
	}
	return out, nil
}

// playRound is core.RunGame rebuilt from the layers' public functions, with
// a span around each call. It draws from the round's RNG in the same order,
// so it returns the same accuracy; featurization and prediction run on the
// op's own goroutine, so the spans of one round never overlap.
func playRound(set *dataset.Set, cfg core.GameConfig, ot *opTrace) (float64, error) {
	emb, err := embed.Get(cfg.Pipeline.Embedding)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	train, test := set.Split(0.75, rng)
	trainT, testT := "none", "none"
	normalize := false
	switch cfg.Game {
	case 1:
		testT = cfg.Evader
	case 2:
		trainT, testT = cfg.Evader, cfg.Evader
	case 3:
		testT = cfg.Evader
		normalize = cfg.Pipeline.Normalizer != passes.O0
	}
	norm := cfg.Pipeline.Normalizer
	trainF, err := featurize(train, trainT, normalize, norm, emb, rng, ot)
	if err != nil {
		return 0, err
	}
	testF, err := featurize(test, testT, normalize, norm, emb, rng, ot)
	if err != nil {
		return 0, err
	}
	truth := make([]int, len(test))
	pred := make([]int, len(test))
	for i := range test {
		truth[i] = test[i].Class
	}
	if emb.Kind == embed.GraphKind {
		model := ml.NewDGCNN(rand.New(rand.NewSource(rng.Int63())))
		gs := make([]*embed.Graph, len(trainF))
		for i, f := range trainF {
			gs[i] = f.graph
		}
		end := ot.span("ml.fit_graph")
		err := model.FitGraphs(gs, labels(train), set.NumClasses)
		end()
		if err != nil {
			return 0, err
		}
		end = ot.span("ml.predict")
		for i, f := range testF {
			pred[i] = model.PredictGraph(f.graph)
		}
		end()
	} else {
		model, err := ml.New(cfg.Pipeline.Model, rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			return 0, err
		}
		X := make([][]float64, len(trainF))
		for i, f := range trainF {
			X[i] = f.vec
		}
		end := ot.span("ml.fit")
		err = model.Fit(X, labels(train), set.NumClasses)
		end()
		if err != nil {
			return 0, err
		}
		end = ot.span("ml.predict")
		for i, f := range testF {
			pred[i] = model.Predict(f.vec)
		}
		end()
	}
	return stats.Accuracy(pred, truth)
}

type feature struct {
	vec   embed.Vector
	graph *embed.Graph
}

func labels(samples []dataset.Sample) []int {
	y := make([]int, len(samples))
	for i, s := range samples {
		y[i] = s.Class
	}
	return y
}

// featurize mirrors the harness's featurization: per-sample seeds drawn up
// front, then compile, transform, normalize and embed each sample.
func featurize(samples []dataset.Sample, transform string, normalize bool, norm passes.Level,
	emb *embed.Embedding, rng *rand.Rand, ot *opTrace) ([]feature, error) {

	seeds := make([]int64, len(samples))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	out := make([]feature, len(samples))
	for i, s := range samples {
		var fl *ir.Flat
		if !normalize && (transform == "" || transform == "none" || transform == "O0") {
			end := ot.span("progcache.flat")
			f, err := progcache.CompileFlat(s.Source, "prog")
			end()
			if err != nil {
				return nil, fmt.Errorf("sample %d: %w", i, err)
			}
			fl = f
		} else {
			m, err := transformModule(s.Source, transform, rand.New(rand.NewSource(seeds[i])), ot)
			if err != nil {
				return nil, fmt.Errorf("sample %d: %w", i, err)
			}
			if normalize {
				if err := optimize(m, norm, ot); err != nil {
					return nil, fmt.Errorf("sample %d: %w", i, err)
				}
			}
			fl = flatten(m, ot)
		}
		if emb.Kind == embed.GraphKind {
			end := ot.span("embed.graph")
			out[i].graph = emb.GraphFlat(fl)
			end()
		} else {
			end := ot.span("embed.vec")
			out[i].vec = emb.VecFlat(fl)
			end()
		}
	}
	return out, nil
}

// transformModule is core.Transform rebuilt from the layers' public
// functions: a thawed copy of the cached O0 compile, then passes or an
// obfuscator; the source-level strategies rewrite and recompile the source.
func transformModule(src, name string, rng *rand.Rand, ot *opTrace) (*ir.Module, error) {
	switch name {
	case "rs", "mcmc", "drlsg", "ga":
		end := ot.span("srcobf.transform")
		out, err := srcobf.TransformSource(src, name, rng)
		end()
		if err != nil {
			return nil, err
		}
		ot.count("minic.bytes", float64(len(out)))
		end = ot.span("minic.compile")
		m, err := minic.CompileSource(out, "prog")
		end()
		return m, err
	}
	end := ot.span("progcache.thaw")
	m, err := progcache.CompileThaw(src, "prog")
	end()
	if err != nil {
		return nil, err
	}
	switch name {
	case "none", "", "O0":
		return m, nil
	case "O1", "O2", "O3":
		lvl, _ := passes.ParseLevel(name)
		return m, optimize(m, lvl, ot)
	case "bcf", "fla", "sub", "ollvm":
		return m, obfuscate(m, name, rng, ot)
	}
	return nil, fmt.Errorf("transform %q has no decomposition", name)
}

func optimize(m *ir.Module, lvl passes.Level, ot *opTrace) error {
	if ot != nil {
		ot.count("passes.instrs_in", float64(m.NumInstrs()))
	}
	end := ot.span("passes.optimize")
	err := passes.Optimize(m, lvl)
	end()
	if ot != nil {
		ot.count("passes.instrs_out", float64(m.NumInstrs()))
	}
	return err
}

func obfuscate(m *ir.Module, name string, rng *rand.Rand, ot *opTrace) error {
	if ot != nil {
		ot.count("obfus.instrs_in", float64(m.NumInstrs()))
	}
	end := ot.span("obfus.apply")
	err := obfus.Apply(m, name, rng)
	end()
	if ot != nil {
		ot.count("obfus.instrs_out", float64(m.NumInstrs()))
	}
	return err
}

func flatten(m *ir.Module, ot *opTrace) *ir.Flat {
	end := ot.span("ir.flatten")
	fl := ir.Flatten(m)
	end()
	ot.count("ir.instrs", float64(fl.NumInstrs()))
	return fl
}

// fitSpeedup answers whether parallel training pays at the games' model
// size: it fits the dgcnn round's DGCNN five times at one training worker
// and five at nproc, alternating, at the real GOMAXPROCS, and returns the
// ratio of the median fit times. It runs after the measured loop, with nothing else in flight.
func fitSpeedup(set *dataset.Set, cfg core.GameConfig) (float64, error) {
	if nproc() == 1 {
		return 1, nil
	}
	emb, err := embed.Get(cfg.Pipeline.Embedding)
	if err != nil {
		return 0, err
	}
	train, _ := set.Split(0.75, rand.New(rand.NewSource(cfg.Seed)))
	gs := make([]*embed.Graph, len(train))
	for i, s := range train {
		fl, err := progcache.CompileFlat(s.Source, "prog")
		if err != nil {
			return 0, err
		}
		gs[i] = emb.GraphFlat(fl)
	}
	y := labels(train)
	defer ml.SetTrainWorkers(0)
	const reps = 5
	var serial, parallel []time.Duration
	for r := 0; r < reps; r++ {
		for _, workers := range []int{1, nproc()} {
			ml.SetTrainWorkers(workers)
			m := ml.NewDGCNN(rand.New(rand.NewSource(int64(r))))
			start := time.Now()
			if err := m.FitGraphs(gs, y, set.NumClasses); err != nil {
				return 0, err
			}
			if workers == 1 {
				serial = append(serial, time.Since(start))
			} else {
				parallel = append(parallel, time.Since(start))
			}
		}
	}
	return float64(medianDur(serial)) / float64(medianDur(parallel)), nil
}
