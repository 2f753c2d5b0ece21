package difftest

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/progcache"
	"repro/internal/progen"
	"repro/internal/vm"
)

// genSrc is the campaign's seed-to-program mapping, shared for readability.
func genSrc(seed int64) string { return progen.GenerateSeed(seed) }

// TestCleanCampaign is the harness's core promise in miniature: batches of
// generated programs through every module-level transform with zero
// semantics-breaking cells. Every cell checks a thawed copy against its
// clone, the VM against the tree interpreter and the result against the
// oracle. `make fuzz-smoke` runs the smoke-shaped row at 200 programs.
func TestCleanCampaign(t *testing.T) {
	smokeN := 60
	if testing.Short() {
		smokeN = 12
	}
	for _, tc := range []struct {
		name string
		n    int
		seed int64
		gen  progen.Config
	}{
		{"default-gen-seed1000", 25, 1000, progen.Config{}},
		{"default-gen-seed2000", 15, 2000, progen.Config{}},
		{"smoke-gen-seed1", smokeN, 1, SmokeGen()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunCampaign(CampaignConfig{N: tc.n, Seed: tc.seed, Set: "module", Gen: tc.gen})
			if err != nil {
				t.Fatal(err)
			}
			if res.OracleErrs != 0 {
				t.Fatalf("%d oracle failures: %+v", res.OracleErrs, res.Failures[0])
			}
			if n := res.TotalFailures(); n != 0 {
				f := res.Failures[0]
				t.Fatalf("%d failures; first: transform=%s seed=%d verdict=%s detail=%.400s\nrepro:\n%s",
					n, f.Transform, f.Seed, f.Verdict, f.Detail, f.Repro)
			}
			// module = 9 passes + 3 pipelines + 4 obfuscators + 3 composed,
			// all of them module-level, so every cell checked both copies.
			if len(res.Stats) != 19 {
				t.Fatalf("want 19 module-level transforms in the module set, got %d", len(res.Stats))
			}
			for name, st := range res.Stats {
				if st.Cells() != int64(tc.n) || st.Equal == 0 {
					t.Errorf("transform %s: %d cells, %d equal; want %d cells, some equal",
						name, st.Cells(), st.Equal, tc.n)
				}
			}
		})
	}
}

// TestCampaignDeterministic pins worker-count independence: the same seed
// must yield identical stats and failures for 1 worker and many.
func TestCampaignDeterministic(t *testing.T) {
	assertWorkerIndependent(t, CampaignConfig{N: 8, Seed: 42, Set: "O2"})
}

// TestThawEquivalenceDeterministic pins the worker-count independence of the
// thaw-vs-clone checks: the smoke set covers every pass, pipeline and
// obfuscator, so under -race it races the thaw and clone copies of every
// transform group, and the results must match at 1 and 4 workers.
func TestThawEquivalenceDeterministic(t *testing.T) {
	assertWorkerIndependent(t, CampaignConfig{N: 6, Seed: 99, Set: "smoke", Gen: SmokeGen()})
}

// assertWorkerIndependent runs cfg at 1 and 4 workers and fails unless the
// stats, oracle errors and failures are identical.
func assertWorkerIndependent(t *testing.T, cfg CampaignConfig) {
	t.Helper()
	run := func(workers int) *CampaignResult {
		c := cfg
		c.Workers = workers
		res, err := RunCampaign(c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(statsNoTiming(a), statsNoTiming(b)) ||
		a.OracleErrs != b.OracleErrs || !reflect.DeepEqual(a.Failures, b.Failures) {
		t.Fatalf("campaign differs across worker counts:\n%+v\nvs\n%+v", statsNoTiming(a), statsNoTiming(b))
	}
}

// TestCampaignRejectsBadN: a campaign of no programs is a usage error, not
// a passing run.
func TestCampaignRejectsBadN(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantErr bool
	}{{-2, true}, {-1, true}, {0, true}, {1, false}} {
		res, err := RunCampaign(CampaignConfig{N: tc.n, Seed: 1, Set: "dce", Gen: SmokeGen()})
		if (err != nil) != tc.wantErr {
			t.Errorf("N=%d: err = %v, want error %v", tc.n, err, tc.wantErr)
		}
		if err == nil && res.Programs != tc.n {
			t.Errorf("N=%d: ran %d programs", tc.n, res.Programs)
		}
	}
}

// TestCampaignLeavesProgcacheAlone: every campaign cell copies its own
// master, so a campaign neither compiles into nor reads from the shared
// compile cache.
func TestCampaignLeavesProgcacheAlone(t *testing.T) {
	before := progcache.Snapshot()
	if _, err := RunCampaign(CampaignConfig{N: 4, Seed: 7, Workers: 1, Set: "module"}); err != nil {
		t.Fatal(err)
	}
	after := progcache.Snapshot()
	if after.Misses != before.Misses || after.Entries != before.Entries ||
		after.Hits != before.Hits || after.ThawHits != before.ThawHits {
		t.Fatalf("campaign touched progcache: before %+v, after %+v", before, after)
	}
}

func statsNoTiming(r *CampaignResult) map[string]TransformStats {
	out := make(map[string]TransformStats, len(r.Stats))
	for k, v := range r.Stats {
		s := *v
		s.Nanos = 0
		out[k] = s
	}
	return out
}

// flipSub turns every OpSub into OpAdd — a classic "one opcode off"
// miscompile.
func flipSub(m *ir.Module) {
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpSub {
					in.Op = ir.OpAdd
				}
			}
		}
	}
}

// brokenSub is a pass that miscompiles every subtraction; the differential
// oracle must catch it.
var brokenSub = Transform{Name: "broken-sub", Group: "pass", Mod: func(m *ir.Module, _ *rand.Rand) error {
	flipSub(m)
	return nil
}}

// checkSrc is CheckOne with an oracle that must compile.
func checkSrc(t *testing.T, src string, tr Transform, seed int64, eng interp.Engine) (Verdict, string) {
	t.Helper()
	v, detail, err := CheckOne(src, tr, seed, eng)
	if err != nil {
		t.Fatalf("oracle: %v\n%s", err, src)
	}
	return v, detail
}

// requireCaughtAndShrunk finds a seed under 20 on which tr gets verdict
// want, shrinks that program, and checks the repro is under 30 lines and
// still gets want.
func requireCaughtAndShrunk(t *testing.T, tr Transform, eng interp.Engine, want Verdict) (detail string) {
	t.Helper()
	for seed := int64(0); seed < 20; seed++ {
		src := genSrc(seed)
		v, d := checkSrc(t, src, tr, seed, eng)
		if v != want {
			continue
		}
		repro := ShrinkFailure(src, tr, seed, eng)
		if lines := strings.Count(repro, "\n") + 1; lines >= 30 {
			t.Errorf("shrunk repro still %d lines (want <30):\n%s", lines, repro)
		}
		// The shrunk repro must still fail the same way, or the shrinker lied.
		if v2, _ := checkSrc(t, repro, tr, seed, eng); v2 != want {
			t.Fatalf("shrunk repro verdict = %s, want %s:\n%s", v2, want, repro)
		}
		t.Logf("caught at seed %d; shrunk to %d bytes:\n%s", seed, len(repro), repro)
		return d
	}
	t.Fatalf("%s was never %s over 20 seeds", tr.Name, want)
	return ""
}

// TestBrokenPassCaughtAndShrunk is the acceptance self-test: a deliberately
// miscompiling pass must be caught by the harness and shrunk to a repro
// under 30 lines that still exhibits the failure.
func TestBrokenPassCaughtAndShrunk(t *testing.T) {
	requireCaughtAndShrunk(t, brokenSub, vm.Engine{}, Mismatch)
}

// TestSecondApplicationDivergesCaught: a transform whose second application
// differs from its first (here it miscompiles only the clone, which is
// transformed second) must surface as ThawDiverged and shrink.
func TestSecondApplicationDivergesCaught(t *testing.T) {
	calls := 0
	tr := Transform{Name: "second-differs", Group: "pass", Mod: func(m *ir.Module, _ *rand.Rand) error {
		if calls++; calls%2 == 0 {
			flipSub(m)
		}
		return nil
	}}
	requireCaughtAndShrunk(t, tr, vm.Engine{}, ThawDiverged)
}

// TestSharedWriteBlamedOnItsCell: a transform that writes through a type
// the copies share with the master (main's signature) passes every
// copy-level check, so only the master re-check can catch it. It must fail
// in its own cells, and the cells after it must still pass on a master
// rebuilt intact.
func TestSharedWriteBlamedOnItsCell(t *testing.T) {
	sigWriter := Transform{Name: "sig-writer", Group: "pass", Mod: func(m *ir.Module, _ *rand.Rand) error {
		m.Func("main").Sig.Ret = ir.I8
		return nil
	}}
	trs, err := Transforms("smoke")
	if err != nil {
		t.Fatal(err)
	}
	trs = []Transform{trs[0], sigWriter, trs[len(trs)-1]}
	const n = 4
	res, err := runCampaign(CampaignConfig{N: n, Seed: 3, Workers: 1, Gen: SmokeGen()}, trs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats["sig-writer"].ThawDiverged; got != n {
		t.Fatalf("sig-writer: %d thaw-diverged cells, want %d: %+v", got, n, *res.Stats["sig-writer"])
	}
	for _, f := range res.Failures {
		if f.Transform != "sig-writer" || !strings.Contains(f.Detail, "master") {
			t.Errorf("failure not blamed on the master write: transform=%s detail=%.200s", f.Transform, f.Detail)
		}
	}
	for _, tr := range []Transform{trs[0], trs[2]} {
		if st := res.Stats[tr.Name]; st.Failures() != 0 {
			t.Errorf("%s after a master write: %+v", tr.Name, *st)
		}
	}
}

// TestVerifyFailCaught pins that structural breakage surfaces as a
// VerifyFail verdict before the interpreter ever runs the module.
func TestVerifyFailCaught(t *testing.T) {
	// Deleting the terminator of main's last block leaves a module
	// ir.Verify must reject.
	tr := Transform{Name: "broken-term", Group: "pass", Mod: func(m *ir.Module, _ *rand.Rand) error {
		b := m.Func("main").Blocks[len(m.Func("main").Blocks)-1]
		b.Instrs = b.Instrs[:len(b.Instrs)-1]
		return nil
	}}
	if v, detail := checkSrc(t, genSrc(3), tr, 1, vm.Engine{}); v != VerifyFail {
		t.Fatalf("verdict = %s (%s), want verify-fail", v, detail)
	}
}

// TestCampaignWritesCrashers checks the failure path end to end: a campaign
// run with a broken transform must write annotated, shrunk crasher files.
func TestCampaignWritesCrashers(t *testing.T) {
	dir := t.TempDir()
	tr := brokenSub
	var failures []Failure
	for seed := int64(0); seed < 20 && len(failures) == 0; seed++ {
		src := genSrc(seed)
		if v, detail := checkSrc(t, src, tr, seed, vm.Engine{}); v.Failure() {
			failures = append(failures, Failure{
				Seed: seed, Transform: tr.Name, Verdict: v, Detail: detail,
				Repro: ShrinkFailure(src, tr, seed, vm.Engine{}),
			})
		}
	}
	if len(failures) == 0 {
		t.Fatal("no failure to exercise the crasher writer")
	}
	if err := WriteCrashers(dir, failures); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no crasher files written (err=%v)", err)
	}
	body, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"// transform: broken-sub", "// seed:", "// verdict:", "int main"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("crasher file missing %q:\n%s", want, body)
		}
	}
}

// TestTransformSets pins the registry contents so a transform can't silently
// drop out of the fuzzed set.
func TestTransformSets(t *testing.T) {
	mod, err := Transforms("module")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tr := range mod {
		names = append(names, tr.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range append(append([]string{}, PassNames...),
		"O1", "O2", "O3", "bcf", "fla", "sub", "ollvm", "bcf+O2", "fla+O3", "ollvm+O2") {
		if !strings.Contains(joined+" ", want+" ") {
			t.Errorf("module set missing transform %q (have %s)", want, joined)
		}
	}
	all, err := Transforms("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(mod)+4 {
		t.Errorf("all set has %d transforms, want %d", len(all), len(mod)+4)
	}
	smoke, err := Transforms("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if len(smoke) != len(mod)-3 {
		t.Errorf("smoke set has %d transforms, want %d (module minus composed)", len(smoke), len(mod)-3)
	}
	if _, err := Transforms("nosuch"); err == nil {
		t.Error("unknown set did not error")
	}
	one, err := Transforms("gvn")
	if err != nil || len(one) != 1 || one[0].Name != "gvn" {
		t.Errorf("single-transform set: %v, %v", one, err)
	}
}

// TestTransformsCarryModuleForms pins the registry invariant the campaign
// relies on: every transform has exactly one form, and only the source
// group has the source form.
func TestTransformsCarryModuleForms(t *testing.T) {
	trs, err := Transforms("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		hasMod, hasSrc := tr.Mod != nil, tr.Src != nil
		if hasMod == hasSrc || hasSrc != (tr.Group == "source") {
			t.Errorf("transform %s (group %s): Mod set %v, Src set %v; want exactly one, Src only in group source",
				tr.Name, tr.Group, hasMod, hasSrc)
		}
	}
}

// TestShrinkReducesSize sanity-checks the shrinker on a synthetic predicate:
// "contains a subtraction" — it must strip everything else away.
func TestShrinkReducesSize(t *testing.T) {
	src := genSrc(5)
	if !strings.Contains(src, "-") {
		t.Skip("seed 5 program has no subtraction")
	}
	out := Shrink(src, func(cand string) bool {
		if _, err := minic.CompileSource(cand, "x"); err != nil {
			return false
		}
		return strings.Contains(cand, "-")
	})
	if len(out) >= len(src) {
		t.Fatalf("shrinker made no progress: %d -> %d bytes", len(src), len(out))
	}
}
