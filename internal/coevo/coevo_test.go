package coevo

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/stats"
)

func testSet(t *testing.T) *dataset.Set {
	t.Helper()
	set, err := dataset.Generate(2, 8, 11)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return set
}

func testConfig(set *dataset.Set, workers int) Config {
	return Config{
		Set:         set,
		Embedding:   "histogram",
		Model:       "lr",
		Strategy:    "ga",
		Attackers:   2,
		PopSize:     2,
		Generations: 3,
		Seed:        42,
		Workers:     workers,
	}
}

// stripVolatile zeroes the fields documented as run-dependent so the rest
// can be compared exactly across runs and worker counts.
func stripVolatile(r *Result) *Result {
	c := *r
	c.Generations = append([]GenerationResult{}, r.Generations...)
	for i := range c.Generations {
		c.Generations[i].RetrainNS = 0
	}
	return &c
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	set := testSet(t)
	var base *Result
	for _, workers := range []int{1, 4, 8} {
		res, err := Run(testConfig(set, workers))
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		res = stripVolatile(res)
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base.Generations, res.Generations) {
			t.Fatalf("workers=%d diverged:\n  base: %+v\n  got:  %+v", workers, base.Generations, res.Generations)
		}
		if !bytes.Equal(base.FinalSnapshot, res.FinalSnapshot) {
			t.Fatalf("workers=%d produced a different final snapshot", workers)
		}
	}
	if len(base.Generations) != 3 {
		t.Fatalf("want 3 generations, got %d", len(base.Generations))
	}
}

func TestRunEloZeroSumAndLineage(t *testing.T) {
	set := testSet(t)
	res, err := Run(testConfig(set, 2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, gr := range res.Generations {
		sum := gr.AttackerElo + gr.DefenderElo
		if math.Abs(sum-2*stats.EloInitial) > 1e-6 {
			t.Fatalf("gen %d: Elo not zero-sum: %.6f + %.6f", gr.Gen, gr.AttackerElo, gr.DefenderElo)
		}
	}
	_, lin, err := ml.LoadLineage(bytes.NewReader(res.FinalSnapshot))
	if err != nil {
		t.Fatalf("LoadLineage(final): %v", err)
	}
	if lin.Generation != res.FinalVersion {
		t.Fatalf("final snapshot generation %d != FinalVersion %d", lin.Generation, res.FinalVersion)
	}
	if res.FinalVersion > 1 && lin.Parent != res.FinalVersion-1 {
		t.Fatalf("final snapshot parent %d, want %d", lin.Parent, res.FinalVersion-1)
	}
}

// alwaysWrong evades every verdict and trains to nothing: plugging it in as
// the live defender forces every member to count as an evasion and every
// retrained checkpoint to crater on the holdout.
type alwaysWrong struct{}

func (alwaysWrong) Fit(X [][]float64, y []int, numClasses int) error { return nil }
func (alwaysWrong) Predict(x []float64) int                          { return -1 }
func (alwaysWrong) MemoryBytes() int64                               { return 0 }

func TestGenerationRollsBackOnRegression(t *testing.T) {
	set := testSet(t)
	cfg := testConfig(set, 2)
	a, err := newArena(&cfg)
	if err != nil {
		t.Fatalf("newArena: %v", err)
	}
	goodAcc := a.lastAcc
	a.model = alwaysWrong{}
	gr, err := a.generation(1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("generation: %v", err)
	}
	if gr.EvasionRate != 1 {
		t.Fatalf("alwaysWrong defender: want evasion rate 1, got %v", gr.EvasionRate)
	}
	if gr.NewEvasions == 0 {
		t.Fatal("want new evasions in the pool")
	}
	if !gr.RolledBack {
		t.Fatal("regressing retrain was not rolled back")
	}
	if gr.Version != 1 || a.version != 1 {
		t.Fatalf("rollback must not bump the version: gr=%d arena=%d", gr.Version, a.version)
	}
	if _, still := a.model.(alwaysWrong); still {
		t.Fatal("rollback did not restore the checkpointed model")
	}
	if acc := a.holdoutAcc(); acc != goodAcc {
		t.Fatalf("restored model holdout acc %v, want the checkpointed %v", acc, goodAcc)
	}
	// The pool kept the evasions: a follow-up generation with the restored
	// defender retrains on them and can accept.
	if len(a.poolX) != gr.NewEvasions {
		t.Fatalf("pool lost evasions across rollback: %d != %d", len(a.poolX), gr.NewEvasions)
	}
}

func TestRunWritesSnapshotDir(t *testing.T) {
	set := testSet(t)
	dir := t.TempDir()
	cfg := testConfig(set, 2)
	cfg.SnapshotDir = dir
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) == 0 {
		t.Fatal("no snapshot files written")
	}
	// gen 0 (the initial fit) is always present and must load.
	b, err := os.ReadFile(filepath.Join(dir, "lr.gen000.snap"))
	if err != nil {
		t.Fatalf("gen000 snapshot: %v", err)
	}
	if _, _, err := ml.LoadLineage(bytes.NewReader(b)); err != nil {
		t.Fatalf("gen000 snapshot does not load: %v", err)
	}
	_ = res
}

// recordingPusher counts pushes and remembers the last generation seen.
type recordingPusher struct {
	mu      sync.Mutex
	pushes  int
	lastGen int64
	name    string
}

func (p *recordingPusher) Push(model string, snapshot []byte, gen int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pushes++
	p.lastGen = gen
	p.name = model
	return nil
}

func TestRunPushesAcceptedSnapshots(t *testing.T) {
	set := testSet(t)
	p := &recordingPusher{}
	cfg := testConfig(set, 2)
	cfg.Push = p
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p.pushes == 0 {
		t.Fatal("pusher never called")
	}
	if p.name != "lr" {
		t.Fatalf("pushed model %q, want lr", p.name)
	}
	if p.lastGen != res.FinalVersion {
		t.Fatalf("last pushed generation %d, want final version %d", p.lastGen, res.FinalVersion)
	}
}
