package difftest

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

// TestBrokenEngineCaughtAndShrunk proves the harness detects engine-level
// miscompiles, not just transform-level ones: a VM with one sabotaged
// bytecode op (add executes as sub) must surface as EngineDiverged and the
// shrinker must reduce the disagreeing program while preserving the
// divergence.
func TestBrokenEngineCaughtAndShrunk(t *testing.T) {
	tr := Transform{Name: "O0", Group: "pass", Mod: func(*ir.Module, *rand.Rand) error { return nil }}
	detail := requireCaughtAndShrunk(t, tr, vm.BrokenEngine(), EngineDiverged)
	if !strings.Contains(detail, "vm-broken") {
		t.Errorf("divergence detail does not name the engine: %s", detail)
	}
}

// TestMergeCountsEngineDiverged folds two batches, one with cells of a
// divergence verdict, and checks that Cells and Failures both count them.
// One row per divergence verdict.
func TestMergeCountsEngineDiverged(t *testing.T) {
	for _, tc := range []struct {
		verdict Verdict
		bad     TransformStats // two cells of the verdict
		count   func(TransformStats) int64
	}{
		{EngineDiverged, TransformStats{EngineDiverged: 2}, func(s TransformStats) int64 { return s.EngineDiverged }},
		{ThawDiverged, TransformStats{ThawDiverged: 2}, func(s TransformStats) int64 { return s.ThawDiverged }},
	} {
		t.Run(tc.verdict.String(), func(t *testing.T) {
			second := tc.bad
			second.Equal, second.Mismatch, second.Nanos = 1, 1, 5
			total := &CampaignResult{}
			total.Merge(&CampaignResult{Programs: 4, Stats: map[string]*TransformStats{
				"O0": {Equal: 3, TrapSkipped: 1, Nanos: 10},
			}})
			total.Merge(&CampaignResult{
				Programs: 4, OracleErrs: 1,
				Stats: map[string]*TransformStats{
					"O0":  &second,
					"sub": {Equal: 4},
				},
				Failures: []Failure{{Seed: 5, Transform: "O0", Verdict: tc.verdict}},
			})
			o0 := total.Stats["O0"]
			if got := o0.Cells(); got != 8 {
				t.Errorf("O0 cells = %d, want 8 (%+v)", got, *o0)
			}
			if got := o0.Failures(); got != 3 {
				t.Errorf("O0 failures = %d, want 3 (%+v)", got, *o0)
			}
			if tc.count(*o0) != 2 || o0.Nanos != 15 {
				t.Errorf("O0 stats not summed: %+v", *o0)
			}
			if total.Programs != 8 || total.OracleErrs != 1 || len(total.Failures) != 1 || total.TotalFailures() != 3 {
				t.Errorf("merged totals: programs=%d oracle=%d failures=%d total=%d",
					total.Programs, total.OracleErrs, len(total.Failures), total.TotalFailures())
			}
			if got := total.Stats["sub"].Cells(); got != 4 {
				t.Errorf("sub cells = %d, want 4", got)
			}
		})
	}
}
