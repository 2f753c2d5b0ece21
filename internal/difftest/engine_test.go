package difftest

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/vm"
)

// TestVMEngineCampaignClean is the engine-conformance promise in miniature:
// a campaign batch cross-validated against the bytecode VM must agree with
// the tree interpreter bit-for-bit (same return, output, trap kind and step
// count) on every transformed cell.
func TestVMEngineCampaignClean(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{N: 15, Seed: 2000, Workers: 0, Set: "module"})
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleErrs != 0 {
		t.Fatalf("%d oracle failures: %+v", res.OracleErrs, res.Failures[0])
	}
	if n := res.TotalFailures(); n != 0 {
		f := res.Failures[0]
		t.Fatalf("%d failures; first: transform=%s seed=%d verdict=%s detail=%s\nrepro:\n%s",
			n, f.Transform, f.Seed, f.Verdict, f.Detail, f.Repro)
	}
}

// TestBrokenEngineCaughtAndShrunk proves the harness detects engine-level
// miscompiles, not just transform-level ones: a VM with one sabotaged
// bytecode op (add executes as sub) must surface as EngineDiverged and the
// shrinker must reduce the disagreeing program while preserving the
// divergence.
func TestBrokenEngineCaughtAndShrunk(t *testing.T) {
	broken := vm.BrokenEngine()
	tr := Transform{Name: "O0", Group: "pass", Apply: func(src string, _ *rand.Rand) (*ir.Module, error) {
		return minic.CompileSource(src, "prog")
	}}
	caught := false
	for seed := int64(0); seed < 20 && !caught; seed++ {
		src := genSrc(seed)
		oracle, err := Oracle(src)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		v, detail := CheckOne(src, tr, rand.New(rand.NewSource(seed)), oracle, broken)
		if v != EngineDiverged {
			continue
		}
		caught = true
		if !strings.Contains(detail, "vm-broken") {
			t.Errorf("divergence detail does not name the engine: %s", detail)
		}
		repro := ShrinkFailure(src, tr, seed, broken)
		if lines := strings.Count(repro, "\n") + 1; lines >= 30 {
			t.Errorf("shrunk repro still %d lines (want <30):\n%s", lines, repro)
		}
		// The shrunk repro must still diverge, or the shrinker lied.
		oracle2, err := Oracle(repro)
		if err != nil {
			t.Fatalf("shrunk repro stopped compiling: %v\n%s", err, repro)
		}
		v2, _ := CheckOne(repro, tr, rand.New(rand.NewSource(seed)), oracle2, broken)
		if v2 != EngineDiverged {
			t.Fatalf("shrunk repro verdict = %s, want engine-diverged:\n%s", v2, repro)
		}
		t.Logf("caught at seed %d; shrunk to %d bytes:\n%s", seed, len(repro), repro)
	}
	if !caught {
		t.Fatal("sabotaged add->sub bytecode was never caught over 20 seeds")
	}
}

// TestMergeCountsEngineDiverged folds two batches, one with EngineDiverged
// cells, and checks that Cells and Failures both count them.
func TestMergeCountsEngineDiverged(t *testing.T) {
	total := &CampaignResult{}
	total.Merge(&CampaignResult{Programs: 4, Stats: map[string]*TransformStats{
		"O0": {Equal: 3, TrapSkipped: 1, Nanos: 10},
	}})
	total.Merge(&CampaignResult{
		Programs: 4, OracleErrs: 1,
		Stats: map[string]*TransformStats{
			"O0":  {Equal: 1, EngineDiverged: 2, Mismatch: 1, Nanos: 5},
			"sub": {Equal: 4},
		},
		Failures: []Failure{{Seed: 5, Transform: "O0", Verdict: EngineDiverged}},
	})
	o0 := total.Stats["O0"]
	if got := o0.Cells(); got != 8 {
		t.Errorf("O0 cells = %d, want 8 (%+v)", got, *o0)
	}
	if got := o0.Failures(); got != 3 {
		t.Errorf("O0 failures = %d, want 3 (%+v)", got, *o0)
	}
	if o0.EngineDiverged != 2 || o0.Nanos != 15 {
		t.Errorf("O0 stats not summed: %+v", *o0)
	}
	if total.Programs != 8 || total.OracleErrs != 1 || len(total.Failures) != 1 || total.TotalFailures() != 3 {
		t.Errorf("merged totals: programs=%d oracle=%d failures=%d total=%d",
			total.Programs, total.OracleErrs, len(total.Failures), total.TotalFailures())
	}
	if got := total.Stats["sub"].Cells(); got != 4 {
		t.Errorf("sub cells = %d, want 4", got)
	}
}
