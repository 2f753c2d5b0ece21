package difftest

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/progen"
	"repro/internal/vm"
)

// genSrc is the campaign's seed-to-program mapping, shared for readability.
func genSrc(seed int64) string { return progen.GenerateSeed(seed) }

// TestCleanCampaign is the harness's core promise in miniature: a batch of
// generated programs through every module-level transform with zero
// semantics-breaking cells. `make fuzz-smoke` runs the same campaign at
// >=200 programs; this keeps `go test` fast while still covering every
// transform.
func TestCleanCampaign(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{N: 25, Seed: 1000, Workers: 0, Set: "module"})
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
	for name, st := range res.Stats {
		if st.Equal == 0 {
			t.Errorf("transform %s never produced an equal cell", name)
		}
	}
}

// TestCampaignDeterministic pins worker-count independence: the same seed
// must yield identical per-transform stats for 1 worker and many.
func TestCampaignDeterministic(t *testing.T) {
	a, err := RunCampaign(CampaignConfig{N: 8, Seed: 42, Workers: 1, Set: "O2"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(CampaignConfig{N: 8, Seed: 42, Workers: 4, Set: "O2"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(statsNoTiming(a), statsNoTiming(b)) {
		t.Fatalf("stats differ across worker counts:\n%+v\nvs\n%+v", statsNoTiming(a), statsNoTiming(b))
	}
}

// TestCampaignKeepsCacheCounters: the campaign resets the compile cache
// to bound its memory, but the progcache counters must survive that, or
// no fuzz manifest could report the compiles it made.
func TestCampaignKeepsCacheCounters(t *testing.T) {
	before := obs.Capture()
	if _, err := RunCampaign(CampaignConfig{N: 4, Seed: 7, Workers: 1, Set: "module"}); err != nil {
		t.Fatal(err)
	}
	d := obs.Capture().Sub(before)
	if d.Counters["progcache.misses"] <= 0 || d.Counters["progcache.thaw.hits"] <= 0 {
		t.Fatalf("campaign delta lost the cache counters: misses=%d thaw.hits=%d",
			d.Counters["progcache.misses"], d.Counters["progcache.thaw.hits"])
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

// brokenSubPass flips every OpSub to OpAdd — a classic "one opcode off"
// miscompile that must be caught by the differential oracle.
func brokenSubPass(src string, _ *rand.Rand) (*ir.Module, error) {
	m, err := minic.CompileSource(src, "prog")
	if err != nil {
		return nil, err
	}
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpSub {
					in.Op = ir.OpAdd
				}
			}
		}
	}
	return m, nil
}

// TestBrokenPassCaughtAndShrunk is the acceptance self-test: a deliberately
// miscompiling pass must be caught by the harness and shrunk to a repro
// under 30 lines that still exhibits the failure.
func TestBrokenPassCaughtAndShrunk(t *testing.T) {
	tr := Transform{Name: "broken-sub", Group: "pass", Apply: brokenSubPass}
	caught := false
	for seed := int64(0); seed < 20 && !caught; seed++ {
		src := genSrc(seed)
		oracle, err := Oracle(src)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		v, _ := CheckOne(src, tr, rand.New(rand.NewSource(seed)), oracle, vm.Engine{})
		if !v.Failure() {
			continue
		}
		caught = true
		repro := ShrinkFailure(src, tr, seed, vm.Engine{})
		if lines := strings.Count(repro, "\n") + 1; lines >= 30 {
			t.Errorf("shrunk repro still %d lines (want <30):\n%s", lines, repro)
		}
		// The shrunk repro must still fail, or the shrinker lied.
		oracle2, err := Oracle(repro)
		if err != nil {
			t.Fatalf("shrunk repro stopped compiling: %v\n%s", err, repro)
		}
		v2, _ := CheckOne(repro, tr, rand.New(rand.NewSource(seed)), oracle2, vm.Engine{})
		if !v2.Failure() {
			t.Fatalf("shrunk repro no longer fails:\n%s", repro)
		}
		t.Logf("caught at seed %d; shrunk to %d bytes:\n%s", seed, len(repro), repro)
	}
	if !caught {
		t.Fatal("broken sub->add pass was never caught over 20 seeds")
	}
}

// brokenTermPass deletes the terminator of main's last block, producing a
// structurally invalid module that ir.Verify must reject.
func brokenTermPass(src string, _ *rand.Rand) (*ir.Module, error) {
	m, err := minic.CompileSource(src, "prog")
	if err != nil {
		return nil, err
	}
	f := m.Func("main")
	b := f.Blocks[len(f.Blocks)-1]
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	return m, nil
}

// TestVerifyFailCaught pins that structural breakage surfaces as a
// VerifyFail verdict before the interpreter ever runs the module.
func TestVerifyFailCaught(t *testing.T) {
	tr := Transform{Name: "broken-term", Group: "pass", Apply: brokenTermPass}
	src := genSrc(3)
	oracle, err := Oracle(src)
	if err != nil {
		t.Fatal(err)
	}
	v, detail := CheckOne(src, tr, rand.New(rand.NewSource(1)), oracle, vm.Engine{})
	if v != VerifyFail {
		t.Fatalf("verdict = %s (%s), want verify-fail", v, detail)
	}
}

// TestCampaignWritesCrashers checks the failure path end to end: a campaign
// run with a broken transform must write annotated, shrunk crasher files.
func TestCampaignWritesCrashers(t *testing.T) {
	dir := t.TempDir()
	tr := Transform{Name: "broken-sub", Group: "pass", Apply: brokenSubPass}
	var failures []Failure
	for seed := int64(0); seed < 20 && len(failures) == 0; seed++ {
		src := genSrc(seed)
		oracle, err := Oracle(src)
		if err != nil {
			t.Fatal(err)
		}
		if v, detail := CheckOne(src, tr, rand.New(rand.NewSource(seed)), oracle, vm.Engine{}); v.Failure() {
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
