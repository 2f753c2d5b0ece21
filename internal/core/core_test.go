package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/passes"
)

// smallSet builds a reduced POJ-like dataset shared across tests.
func smallSet(t *testing.T, classes, perClass int, seed int64) *dataset.Set {
	t.Helper()
	set, err := dataset.Generate(classes, perClass, seed)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func runGame(t *testing.T, set *dataset.Set, game int, evader, embedding, model string, norm passes.Level) *core.GameResult {
	t.Helper()
	res, err := core.RunGame(set, core.GameConfig{
		Game:   game,
		Evader: evader,
		Pipeline: core.Pipeline{
			Embedding:  embedding,
			Model:      model,
			Normalizer: norm,
		},
		TrainFrac: 0.75,
		Seed:      42,
	})
	if err != nil {
		t.Fatalf("game %d (%s/%s/%s): %v", game, evader, embedding, model, err)
	}
	return res
}

func TestGame0HistogramRF(t *testing.T) {
	set := smallSet(t, 8, 16, 1)
	res := runGame(t, set, 0, "", "histogram", "rf", passes.O0)
	if res.Accuracy < 0.7 {
		t.Fatalf("Game0 accuracy %.2f — histogram+rf should classify 8 easy classes well", res.Accuracy)
	}
	if res.NumTrain != 8*12 || res.NumTest != 8*4 {
		t.Fatalf("split %d/%d", res.NumTrain, res.NumTest)
	}
	// On balanced sets accuracy and F1 track each other (Figure 12).
	if diff := res.Accuracy - res.F1; diff > 0.15 || diff < -0.15 {
		t.Fatalf("accuracy %.2f and F1 %.2f diverge too much for a balanced set", res.Accuracy, res.F1)
	}
}

func TestGame1EvasionHurtsAndGame2Recovers(t *testing.T) {
	set := smallSet(t, 8, 16, 2)
	g0 := runGame(t, set, 0, "", "histogram", "rf", passes.O0)
	g1 := runGame(t, set, 1, "ollvm", "histogram", "rf", passes.O0)
	g2 := runGame(t, set, 2, "ollvm", "histogram", "rf", passes.O0)
	// RQ3: the full O-LLVM pipeline must hurt an unaware classifier...
	if g1.Accuracy >= g0.Accuracy-0.1 {
		t.Fatalf("Game1/ollvm did not reduce accuracy: G0=%.2f G1=%.2f", g0.Accuracy, g1.Accuracy)
	}
	// ...and knowledge of the obfuscator must restore most of it.
	if g2.Accuracy <= g1.Accuracy {
		t.Fatalf("Game2 did not recover: G1=%.2f G2=%.2f", g1.Accuracy, g2.Accuracy)
	}
}

func TestGame1FlaBarelyMovesHistogram(t *testing.T) {
	// RQ3's observation: "flattening barely changes the histogram of
	// instructions" — fla alone should hurt much less than ollvm.
	set := smallSet(t, 8, 16, 3)
	g0 := runGame(t, set, 0, "", "histogram", "rf", passes.O0)
	gFla := runGame(t, set, 1, "fla", "histogram", "rf", passes.O0)
	gOllvm := runGame(t, set, 1, "ollvm", "histogram", "rf", passes.O0)
	if gFla.Accuracy <= gOllvm.Accuracy {
		t.Fatalf("fla (%.2f) should evade less than ollvm (%.2f) against histograms",
			gFla.Accuracy, gOllvm.Accuracy)
	}
	_ = g0
}

func TestGame3NormalizationRevertsSourceObfuscation(t *testing.T) {
	// RQ4: -O3 normalization neutralizes Zhang-style source transforms.
	set := smallSet(t, 6, 14, 4)
	g1 := runGame(t, set, 1, "rs", "histogram", "rf", passes.O0)
	g3 := runGame(t, set, 3, "rs", "histogram", "rf", passes.O3)
	if g3.Accuracy < g1.Accuracy-0.05 {
		t.Fatalf("normalization should not hurt against rs: G1=%.2f G3=%.2f", g1.Accuracy, g3.Accuracy)
	}
}

func TestGameValidation(t *testing.T) {
	set := smallSet(t, 4, 6, 5)
	if _, err := core.RunGame(set, core.GameConfig{Game: 9,
		Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"}}); err == nil {
		t.Fatal("accepted invalid game number")
	}
	if _, err := core.RunGame(set, core.GameConfig{Game: 0,
		Pipeline: core.Pipeline{Embedding: "cfg", Model: "rf"}}); err == nil {
		t.Fatal("accepted graph embedding with a vector model")
	}
	if _, err := core.RunGame(set, core.GameConfig{Game: 0,
		Pipeline: core.Pipeline{Embedding: "histogram", Model: "dgcnn"}}); err == nil {
		t.Fatal("accepted vector embedding with dgcnn")
	}
	if _, err := core.RunGame(set, core.GameConfig{Game: 0,
		Pipeline: core.Pipeline{Embedding: "nope", Model: "rf"}}); err == nil {
		t.Fatal("accepted unknown embedding")
	}
}

func TestGraphGameWithDGCNN(t *testing.T) {
	set := smallSet(t, 4, 12, 6)
	res := runGame(t, set, 0, "", "cfg_compact", "dgcnn", passes.O0)
	// Small data, small model: just require clearly-better-than-random.
	if res.Accuracy < 0.4 {
		t.Fatalf("dgcnn/cfg_compact accuracy %.2f vs random 0.25", res.Accuracy)
	}
}

func TestRunRoundsSummary(t *testing.T) {
	set := smallSet(t, 5, 10, 7)
	results, sum, err := core.RunRoundsN(set, core.GameConfig{
		Game:     0,
		Pipeline: core.Pipeline{Embedding: "histogram", Model: "knn"},
		Seed:     9,
	}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || sum.N != 3 {
		t.Fatalf("rounds not executed: %d results", len(results))
	}
	if sum.Mean < 0 || sum.Mean > 1 {
		t.Fatalf("bad summary %v", sum)
	}
}

func TestTransformRegistry(t *testing.T) {
	src := "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }"
	for _, tr := range []string{"none", "O1", "O2", "O3", "mem2reg", "bcf", "fla", "sub", "ollvm", "rs", "mcmc", "drlsg", "ga"} {
		m, err := core.Transform(src, tr, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if m.Func("main") == nil {
			t.Fatalf("%s: lost main", tr)
		}
	}
	if _, err := core.Transform(src, "unknown", rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted unknown transformation")
	}
}

func TestDistanceAnalysisOrdering(t *testing.T) {
	set := smallSet(t, 5, 4, 8)
	res, err := core.DistanceAnalysis(set.Samples, []string{"none", "fla", "ollvm", "O3"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range res {
		byName[r.Transform] = r.Summary.Mean
	}
	if byName["none"] != 0 {
		t.Fatalf("identity transformation moved the histogram: %v", byName["none"])
	}
	// Figure 10: O-LLVM and -O3 are the strongest movers; fla is mild.
	if byName["ollvm"] <= byName["fla"] {
		t.Fatalf("ollvm (%.1f) should move further than fla (%.1f)", byName["ollvm"], byName["fla"])
	}
	if byName["O3"] <= 0 {
		t.Fatal("O3 should move the histogram")
	}
}

func TestSpeedupShapes(t *testing.T) {
	rep, err := core.SpeedupEngine(4, "tree")
	if err != nil {
		t.Fatal(err)
	}
	// The engines' conformance contract at suite level: the bytecode VM
	// reproduces the tree interpreter's table bit-for-bit, O3 and ollvm
	// rows included.
	vmRep, err := core.SpeedupEngine(4, "vm")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vmRep, rep) {
		t.Fatalf("vm suite differs from tree suite:\nvm   %+v\ntree %+v", vmRep.Rows, rep.Rows)
	}
	if len(rep.Rows) != 16 {
		t.Fatalf("%d rows, want 16", len(rep.Rows))
	}
	// Figure 13's shape: O3 speeds up on (geometric) average, O-LLVM slows
	// every program down.
	if rep.GeoO3Speedup <= 1.0 {
		t.Fatalf("geo O3 speedup %.2f, want > 1", rep.GeoO3Speedup)
	}
	if rep.GeoOllvmSlowdown <= 1.5 {
		t.Fatalf("geo ollvm slowdown %.2f, want substantial", rep.GeoOllvmSlowdown)
	}
	for _, row := range rep.Rows {
		if row.OllvmSlowdown <= 1.0 {
			t.Errorf("%s: O-LLVM did not slow down (%.2fx)", row.Name, row.OllvmSlowdown)
		}
	}
}

func TestDiscoverSpuriousDataset3(t *testing.T) {
	cfg := core.DiscoverConfig{PerTransformer: 20, Model: "rf", Seed: 5}
	cfg.Dataset = 1
	r1, err := core.Discover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dataset = 3
	r3, err := core.Discover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's RQ7 finding: with one problem per transformer the
	// classifier "discovers" the problem, not the obfuscator, so dataset3
	// scores far higher than dataset1.
	if r3.Accuracy <= r1.Accuracy {
		t.Fatalf("dataset3 (%.2f) should beat dataset1 (%.2f) spuriously", r3.Accuracy, r1.Accuracy)
	}
	// And dataset1 is still above random guessing.
	if r1.Accuracy <= r1.RandomHit {
		t.Fatalf("dataset1 accuracy %.2f at or below random %.2f", r1.Accuracy, r1.RandomHit)
	}
}

func TestMalwareStudyImprovesWithTraining(t *testing.T) {
	res, err := core.MalwareStudy(core.MalwareConfig{
		TrainPos: 10, Challenge: 5, Models: []string{"rf"}, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	accs := res.Acc["rf"]
	if len(accs) != 7 {
		t.Fatalf("%d training sizes, want 7", len(accs))
	}
	first, last := accs[0], accs[len(accs)-1]
	if last < first {
		t.Fatalf("accuracy did not improve with training growth: %.2f -> %.2f", first, last)
	}
	if last < 0.85 {
		t.Fatalf("full training suite should nearly solve the task, got %.2f", last)
	}
	if res.TrainSizes[6] != 7*res.TrainSizes[0] {
		t.Fatalf("train sizes %v should grow 7x", res.TrainSizes)
	}
}

func TestAntivirusBelowSpecialisedRF(t *testing.T) {
	rows, err := core.AntivirusComparison(core.MalwareConfig{
		TrainPos: 10, Challenge: 5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows, want 7", len(rows))
	}
	avg := 0.0
	for _, r := range rows {
		avg += r.AVDetect
	}
	avg /= float64(len(rows))
	// Figure 16's shape: the generic scanner does useful work on the raw
	// family but loses to the specialised classifier overall.
	if avg <= 0.5 {
		t.Fatalf("signature scanner no better than chance: %.2f", avg)
	}
	if rows[0].RFDetect < avg-0.05 {
		t.Fatalf("specialised rf (%.2f) should not lose to the scanner (%.2f)", rows[0].RFDetect, avg)
	}
}

func TestRunGameDeterministic(t *testing.T) {
	set := smallSet(t, 5, 10, 77)
	cfg := core.GameConfig{
		Game:     1,
		Evader:   "sub",
		Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"},
		Seed:     123,
	}
	a, err := core.RunGame(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.RunGame(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Accuracy != b.Accuracy || a.F1 != b.F1 {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
	cfg.Seed = 124
	c, err := core.RunGame(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A different seed changes the split; results need not differ, but the
	// run must still succeed and stay in range.
	if c.Accuracy < 0 || c.Accuracy > 1 {
		t.Fatalf("accuracy out of range: %v", c.Accuracy)
	}
}
