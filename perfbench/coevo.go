package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/coevo"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/ml"
	"repro/internal/progcache"
	"repro/internal/srcobf"
	"repro/internal/stats"
)

// The coevo workload's fixed arena: an lr defender against four ga
// populations of four members, five generations per arena.
const (
	coevoGens      = 5
	coevoTolerance = 0.02
)

// arenaSeeds are the arenas of one cycle. An arena's seed picks its split,
// its attack programs and its search, and with them its cost.
var arenaSeeds = []int64{1, 2, 3, 4}

func coevoConfig(set *dataset.Set, seed int64) coevo.Config {
	return coevo.Config{
		Set:         set,
		Embedding:   "histogram",
		Model:       "lr",
		Strategy:    "ga",
		Attackers:   4,
		PopSize:     4,
		Generations: coevoGens,
		Tolerance:   coevoTolerance,
		Seed:        seed,
		Workers:     1,
	}
}

// arenaRecord is everything an arena run must reproduce exactly: the
// per-generation records (their volatile retrain timing zeroed) and the
// final checkpoint.
type arenaRecord struct {
	baseline     float64
	gens         []coevo.GenerationResult
	finalVersion int64
	final        []byte
}

func (a arenaRecord) equal(b arenaRecord) bool {
	if a.baseline != b.baseline || a.finalVersion != b.finalVersion ||
		!bytes.Equal(a.final, b.final) || len(a.gens) != len(b.gens) {
		return false
	}
	for i := range a.gens {
		if a.gens[i] != b.gens[i] {
			return false
		}
	}
	return true
}

// runCoevo runs arenas in a closed loop, one cycle through arenaSeeds at a
// time, each arena at one worker so a traced arena's spans never overlap.
// An op is one generation: a cycle's latency is divided over its
// generations, arena set-up included. A reference pass on the other
// path gives every arena's records in advance.
func runCoevo(o options) (*outcome, error) {
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
	cfgs := make([]coevo.Config, len(arenaSeeds))
	for i, seed := range arenaSeeds {
		cfgs[i] = coevoConfig(set, seed)
	}
	library := func(i int, _ *opTrace) (arenaRecord, error) {
		res, err := coevo.Run(cfgs[i])
		if err != nil {
			return arenaRecord{}, err
		}
		rec := arenaRecord{baseline: res.BaselineAcc, finalVersion: res.FinalVersion, final: res.FinalSnapshot}
		for _, g := range res.Generations {
			g.RetrainNS = 0
			rec.gens = append(rec.gens, g)
		}
		return rec, nil
	}
	decomposed := func(i int, ot *opTrace) (arenaRecord, error) { return runArena(cfgs[i], ot) }
	measured, reference := library, decomposed
	var tr *tracer
	if o.trace {
		measured, reference = decomposed, library
		tr = newTracer()
	}

	loop, untraced, want, err := runOps(o, tr, len(cfgs), 1, measured, reference, arenaRecord.equal)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		setup:      setup,
		attempted:  loop.attempted * coevoGens,
		failed:     loop.failed * coevoGens,
		good:       (loop.attempted - loop.failed) * coevoGens,
		elapsed:    loop.busy,
		win:        loop.win,
		rssMB:      median(loop.rss),
		tr:         tr,
		untracedOp: untraced / coevoGens,
	}
	for _, d := range loop.lat {
		out.lat = append(out.lat, d/coevoGens)
	}
	if o.trace {
		tr.ops *= coevoGens
		rate, rollbacks := 0.0, 0.0
		for _, w := range want {
			for _, g := range w.gens {
				rate += g.EvasionRate
				if g.RolledBack {
					rollbacks++
				}
			}
		}
		gens := float64(len(want) * coevoGens)
		out.layer = map[string]float64{
			"coevo.evasion_rate": rate / gens,
			"coevo.rollbacks":    rollbacks / gens,
		}
	}
	return out, nil
}

// attacker is one evader population and the fixed facts of its root program.
type attacker struct {
	pop   *srcobf.Population
	class int
	orig  embed.Vector
}

// runArena is coevo.Run at one worker rebuilt from the layers' public
// functions, with a span around each call: split and embed the corpus, seed
// one population per attack program, fit the defender, then per generation
// evolve every population against the standing defender, collect its
// evasions, update the Elo ratings, warm-retrain, and gate the checkpoint
// on the holdout set. It consumes randomness in the same order, so its
// records match coevo.Run's exactly.
func runArena(cfg coevo.Config, ot *opTrace) (arenaRecord, error) {
	emb, err := embed.Get(cfg.Embedding)
	if err != nil {
		return arenaRecord{}, err
	}
	embedSource := func(src string) (embed.Vector, error) {
		end := ot.span("progcache.flat")
		fl, err := progcache.CompileFlat(src, "prog")
		end()
		if err != nil {
			return nil, err
		}
		return embedFlat(emb, fl, ot), nil
	}
	featurize := func(samples []dataset.Sample) ([][]float64, error) {
		X := make([][]float64, len(samples))
		for i, s := range samples {
			v, err := embedSource(s.Source)
			if err != nil {
				return nil, err
			}
			X[i] = v
		}
		return X, nil
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	train, rest := cfg.Set.Split(0.5, rng)
	hold, attack := rest[:len(rest)/2], rest[len(rest)/2:]
	trainX, err := featurize(train)
	if err != nil {
		return arenaRecord{}, err
	}
	holdX, err := featurize(hold)
	if err != nil {
		return arenaRecord{}, err
	}
	trainY, holdY := labels(train), labels(hold)

	var atts []attacker
	for i := 0; i < cfg.Attackers && i < len(attack); i++ {
		smp := attack[i]
		end := ot.span("minic.parse")
		f, err := minic.Parse(smp.Source)
		end()
		if err != nil {
			return arenaRecord{}, err
		}
		vec, err := embedSource(smp.Source)
		if err != nil {
			return arenaRecord{}, err
		}
		end = ot.span("srcobf.population")
		pop, err := srcobf.NewPopulation(f, cfg.Strategy, cfg.PopSize, nil, rand.New(rand.NewSource(rng.Int63())))
		end()
		if err != nil {
			return arenaRecord{}, err
		}
		atts = append(atts, attacker{pop, smp.Class, vec})
	}

	nc := cfg.Set.NumClasses
	model, err := ml.New(cfg.Model, rand.New(rand.NewSource(cfg.Seed+7)))
	if err != nil {
		return arenaRecord{}, err
	}
	end := ot.span("ml.fit")
	err = model.Fit(trainX, trainY, nc)
	end()
	if err != nil {
		return arenaRecord{}, err
	}
	holdout := func() float64 {
		defer ot.span("ml.predict")()
		hit := 0
		for i, x := range holdX {
			if model.Predict(x) == holdY[i] {
				hit++
			}
		}
		return float64(hit) / float64(len(holdX))
	}
	lastAcc := holdout()
	version := int64(1)
	lastGood, err := saveSnapshot(model, ml.Lineage{Generation: 1}, ot)
	if err != nil {
		return arenaRecord{}, err
	}
	rec := arenaRecord{baseline: lastAcc}

	master := rand.New(rand.NewSource(cfg.Seed + 1000003))
	var poolX [][]float64
	var poolY []int
	seen := map[string]bool{}
	attElo, defElo := stats.EloInitial, stats.EloInitial
	for gen := 1; gen <= cfg.Generations; gen++ {
		seeds := make([]int64, len(atts))
		for i := range seeds {
			seeds[i] = master.Int63()
		}
		defender := model
		gr := coevo.GenerationResult{Gen: gen}
		evaded, total := 0, 0
		divSum, divPops := 0.0, 0
		for i, at := range atts {
			orig, class := at.orig, at.class
			at.pop.SetObjective(func(fl *ir.Flat) (float64, bool) {
				v := embedFlat(emb, fl, ot)
				s := embed.Distance(orig, v)
				if predict(defender, v, ot) != class {
					s += 1e6
				}
				return s, true
			})
			end := ot.span("srcobf.evolve")
			at.pop.Evolve(rand.New(rand.NewSource(seeds[i])))
			end()
			var vecs []embed.Vector
			for mi := range at.pop.Members {
				fl := at.pop.Members[mi].Flat
				if fl == nil {
					end := ot.span("srcobf.flatview")
					fl, err = srcobf.FlatView(at.pop.Members[mi].File)
					end()
					if err != nil {
						vecs = append(vecs, nil)
						total++
						continue
					}
				}
				v := embedFlat(emb, fl, ot)
				vecs = append(vecs, v)
				total++
				if predict(defender, v, ot) == class {
					continue
				}
				evaded++
				if key := evasionKey(v, class); !seen[key] {
					seen[key] = true
					poolX = append(poolX, v)
					poolY = append(poolY, class)
					gr.NewEvasions++
				}
			}
			pairSum, pairs := 0.0, 0
			for x := range vecs {
				for y := x + 1; y < len(vecs); y++ {
					if vecs[x] != nil && vecs[y] != nil {
						pairSum += embed.Distance(vecs[x], vecs[y])
						pairs++
					}
				}
			}
			if pairs > 0 {
				divSum += pairSum / float64(pairs)
				divPops++
			}
		}
		if total > 0 {
			gr.EvasionRate = float64(evaded) / float64(total)
		}
		if divPops > 0 {
			gr.Diversity = divSum / float64(divPops)
		}
		gr.AttackerElo = stats.EloUpdate(attElo, defElo, float64(evaded), total, stats.EloK)
		gr.DefenderElo = stats.EloUpdate(defElo, attElo, float64(total-evaded), total, stats.EloK)
		attElo, defElo = gr.AttackerElo, gr.DefenderElo

		gr.Version = version
		gr.HoldoutAcc = lastAcc
		if gr.NewEvasions > 0 {
			X := append(append([][]float64{}, trainX...), poolX...)
			y := append(append([]int{}, trainY...), poolY...)
			if wf, ok := model.(ml.WarmFitter); ok {
				end := ot.span("ml.warm_fit")
				err = wf.FitWarm(X, y, nc)
				end()
			} else {
				end := ot.span("ml.fit")
				err = model.Fit(X, y, nc)
				end()
			}
			if err != nil {
				return arenaRecord{}, fmt.Errorf("generation %d retrain: %w", gen, err)
			}
			acc := holdout()
			gr.HoldoutAcc = acc
			if acc < lastAcc-cfg.Tolerance {
				end := ot.span("ml.load")
				m, _, err := ml.LoadLineage(bytes.NewReader(lastGood))
				end()
				if err != nil {
					return arenaRecord{}, fmt.Errorf("generation %d rollback: %w", gen, err)
				}
				model = m
				gr.RolledBack = true
			} else {
				prev := version
				version++
				if lastGood, err = saveSnapshot(model, ml.Lineage{Generation: version, Parent: prev}, ot); err != nil {
					return arenaRecord{}, err
				}
				lastAcc = acc
				gr.Version = version
			}
		}
		rec.gens = append(rec.gens, gr)
	}
	rec.finalVersion = version
	rec.final = lastGood
	return rec, nil
}

func embedFlat(emb *embed.Embedding, fl *ir.Flat, ot *opTrace) embed.Vector {
	defer ot.span("embed.vec")()
	return emb.VecFlat(fl)
}

func predict(m ml.Model, v []float64, ot *opTrace) int {
	defer ot.span("ml.predict")()
	return m.Predict(v)
}

func saveSnapshot(m ml.Model, lin ml.Lineage, ot *opTrace) ([]byte, error) {
	defer ot.span("ml.save")()
	var buf bytes.Buffer
	if err := ml.SaveLineage(&buf, m, lin); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// evasionKey identifies one evasion by its true class and the exact bits of
// its feature vector.
func evasionKey(v []float64, class int) string {
	b := make([]byte, 0, len(v)*8+8)
	b = fmt.Appendf(b, "%d|", class)
	for _, x := range v {
		bits := math.Float64bits(x)
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(bits>>s))
		}
	}
	return string(b)
}
