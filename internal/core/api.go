package core

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ml"
	"repro/internal/passes"
	"repro/internal/progcache"
)

// This file is the serving surface of the game engine: the entry points
// internal/serve uses to embed, transform and train outside of a game
// round. They reuse the same progcache / embed / ml stack as RunGame, so a
// served verdict is exactly what the batch harness would have computed.

// vectorEmbedding resolves a vector-kind embedding, rejecting graph ones
// with an actionable error (the serve API only ships flat feature vectors).
func vectorEmbedding(name string) (*embed.Embedding, error) {
	emb, err := embed.Get(name)
	if err != nil {
		return nil, err
	}
	if emb.Kind != embed.VectorKind {
		return nil, fmt.Errorf("core: embedding %q is graph-shaped; the serve API takes vector embeddings (%s)",
			name, strings.Join(embed.VectorNames(), ", "))
	}
	return emb, nil
}

// EmbedSource compiles src through cache and returns its vector
// embedding. Read-only on the cached module: concurrent callers share one
// compiled master. The harness passes progcache.Default; a server passes
// its own bounded cache, so client traffic cannot grow the pinned one.
func EmbedSource(cache *progcache.Cache, src, embedding string) (embed.Vector, error) {
	emb, err := vectorEmbedding(embedding)
	if err != nil {
		return nil, err
	}
	fl, err := cache.Flat(src, "prog")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	v := emb.VecFlat(fl)
	phaseEmbed.Observe(time.Since(start))
	return v, nil
}

// TransformEmbed runs the named evader pipeline over src (seeded, so the
// stochastic evaders replay) and returns the transformed module's printed
// IR together with its vector embedding — the payload a classifier-side
// verdict on the evaded program needs. The O0 compile goes through cache.
func TransformEmbed(cache *progcache.Cache, src, evader, embedding string, seed int64) (string, embed.Vector, error) {
	m, v, err := transformEmbedModule(cache, src, evader, embedding, seed)
	if err != nil {
		return "", nil, err
	}
	return m.String(), v, nil
}

func transformEmbedModule(cache *progcache.Cache, src, evader, embedding string, seed int64) (*ir.Module, embed.Vector, error) {
	emb, err := vectorEmbedding(embedding)
	if err != nil {
		return nil, nil, err
	}
	if err := ValidateEvader(evader); err != nil {
		return nil, nil, err
	}
	m, err := transformFrom(cache.Thaw, src, evader, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	v := emb.VecFlat(ir.Flatten(m))
	phaseEmbed.Observe(time.Since(start))
	return m, v, nil
}

// ExecObs is the observable outcome of executing a transformed program:
// return value, stdout and the dynamic instruction count, or the trap
// message when execution failed. Steps is engine-independent (the engines
// are conformance-tested to agree bit-for-bit), so it is directly
// comparable with the Figure-13 cost numbers.
type ExecObs struct {
	Ret    int64  `json:"ret"`
	Output string `json:"output"`
	Steps  int64  `json:"steps"`
	Trap   string `json:"trap,omitempty"`
}

// ExecMaxSteps bounds served executions; a transformed program that spins
// past it reports a budget trap instead of stalling the server.
const ExecMaxSteps = 16 << 20

// TransformEmbedRun is TransformEmbed plus execution of the transformed
// module on eng. Traps are reported in the observation, not as an error: a
// trapping evaded program is still a servable result.
func TransformEmbedRun(cache *progcache.Cache, src, evader, embedding string, seed int64, eng interp.Engine) (string, embed.Vector, *ExecObs, error) {
	m, v, err := transformEmbedModule(cache, src, evader, embedding, seed)
	if err != nil {
		return "", nil, nil, err
	}
	start := time.Now()
	res, rerr := eng.Run(m, interp.Options{MaxSteps: ExecMaxSteps})
	phaseExec.Observe(time.Since(start))
	ob := &ExecObs{}
	if rerr != nil {
		ob.Trap = rerr.Error()
	} else {
		ob.Ret, ob.Output, ob.Steps = res.Ret, res.Output, res.Steps
	}
	return m.String(), v, ob, nil
}

// TrainVectorModels featurizes every sample of set with a vector embedding
// and fits the named models on the full set — the snapshot-producing path
// behind `arena serve` (a server classifies unseen programs, so there is
// no held-out split here). Deterministic for a fixed seed: each model
// draws its init from its own sub-seed in the given name order.
func TrainVectorModels(set *dataset.Set, embedding string, names []string, seed int64) (map[string]ml.Model, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("core: no models to train")
	}
	emb, err := vectorEmbedding(embedding)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	feats, err := featurize(set.Samples, "none", false, passes.O0, emb, rng)
	if err != nil {
		return nil, err
	}
	X := make([][]float64, len(feats))
	y := make([]int, len(feats))
	for i, f := range feats {
		X[i] = f.vec
		y[i] = f.label
	}
	out := make(map[string]ml.Model, len(names))
	for _, name := range names {
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("core: model %q requested twice", name)
		}
		model, err := ml.New(name, rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			return nil, err
		}
		fitDone := phaseFit.Start()
		if err := model.Fit(X, y, set.NumClasses); err != nil {
			return nil, fmt.Errorf("core: fit %s: %w", name, err)
		}
		fitDone()
		out[name] = model
	}
	return out, nil
}
