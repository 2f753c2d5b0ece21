package difftest

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/progen"
	"repro/internal/vm"
)

// SmokeGen is the lighter program shape used by `make fuzz-smoke`: shallower
// nesting and shorter bodies keep the interpreter cost per cell low enough
// that a 200-program campaign over every pass, pipeline and obfuscator
// finishes in seconds even on one core.
func SmokeGen() progen.Config {
	return progen.Config{MaxHelpers: 2, MaxStmts: 6, MaxDepth: 2,
		Structs: true, Floats: true, Pointers: true, Globals: true}
}

// CampaignConfig bounds one fuzz campaign.
type CampaignConfig struct {
	N       int    // programs to generate
	Seed    int64  // base seed; program i uses Seed+i
	Workers int    // parallel workers (clamped; <=0 means all cores)
	Set     string // transform set for Transforms()

	// CrashersDir, when non-empty, receives one shrunk minimal repro per
	// failing (program, transform) cell.
	CrashersDir string
	// Shrink controls whether failures are minimized before reporting.
	Shrink bool
	// Gen overrides the program shape; zero value means progen defaults.
	Gen progen.Config
}

// TransformStats aggregates the verdicts of one transform over a campaign.
type TransformStats struct {
	Equal          int64
	TrapSkipped    int64
	Mismatch       int64
	EngineDiverged int64
	ThawDiverged   int64
	VerifyFail     int64
	Errors         int64
	Nanos          int64
}

func (s *TransformStats) add(o TransformStats) {
	s.Equal += o.Equal
	s.TrapSkipped += o.TrapSkipped
	s.Mismatch += o.Mismatch
	s.EngineDiverged += o.EngineDiverged
	s.ThawDiverged += o.ThawDiverged
	s.VerifyFail += o.VerifyFail
	s.Errors += o.Errors
	s.Nanos += o.Nanos
}

// Failures returns the count of semantics-breaking verdicts.
func (s *TransformStats) Failures() int64 {
	return s.Mismatch + s.EngineDiverged + s.ThawDiverged + s.VerifyFail + s.Errors
}

// Cells returns the number of cells checked, whatever their verdict.
func (s *TransformStats) Cells() int64 {
	return s.Equal + s.TrapSkipped + s.Failures()
}

// Failure is one semantics-breaking cell, with its (possibly shrunk) repro.
type Failure struct {
	Seed      int64
	Transform string
	Verdict   Verdict
	Detail    string
	Repro     string
}

// CampaignResult is the outcome of RunCampaign.
type CampaignResult struct {
	Programs   int
	OracleErrs int64 // programs the oracle itself failed to compile/verify
	Stats      map[string]*TransformStats
	Failures   []Failure
}

// Merge folds another campaign's result (a later batch) into r.
func (r *CampaignResult) Merge(o *CampaignResult) {
	r.Programs += o.Programs
	r.OracleErrs += o.OracleErrs
	r.Failures = append(r.Failures, o.Failures...)
	if r.Stats == nil {
		r.Stats = make(map[string]*TransformStats, len(o.Stats))
	}
	for name, st := range o.Stats {
		t := r.Stats[name]
		if t == nil {
			t = &TransformStats{}
			r.Stats[name] = t
		}
		t.add(*st)
	}
}

// TotalFailures sums semantics-breaking cells across all transforms.
func (r *CampaignResult) TotalFailures() int64 {
	var n int64
	for _, s := range r.Stats {
		n += s.Failures()
	}
	return n
}

// TransformNames returns the exercised transforms in sorted order.
func (r *CampaignResult) TransformNames() []string {
	names := make([]string, 0, len(r.Stats))
	for n := range r.Stats {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cellSeed derives the RNG seed for one (program, transform) cell. It
// depends only on the program seed and the transform name, so campaign
// results are identical for any worker count.
func cellSeed(progSeed int64, transform string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", progSeed, transform)
	return int64(h.Sum64())
}

// RunCampaign generates cfg.N programs and pushes each through every
// transform in cfg.Set, aggregating verdicts per transform and shrinking
// failures when asked. Each program is compiled, verified, run for the
// oracle and flattened once; every module-level cell then checks a thawed
// copy against a clone, runs the thawed copy on the bytecode VM and the
// tree interpreter, and re-checks the master (see check). The run is
// deterministic for a fixed (Seed, N, Set) regardless of Workers.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("difftest: a campaign needs at least one program, got N=%d", cfg.N)
	}
	trs, err := Transforms(cfg.Set)
	if err != nil {
		return nil, err
	}
	return runCampaign(cfg, trs)
}

func runCampaign(cfg CampaignConfig, trs []Transform) (*CampaignResult, error) {
	gen := cfg.Gen
	if gen == (progen.Config{}) {
		gen = progen.DefaultConfig()
	}

	res := &CampaignResult{Programs: cfg.N, Stats: make(map[string]*TransformStats, len(trs))}
	for _, tr := range trs {
		res.Stats[tr.Name] = &TransformStats{}
	}

	programs := obs.GetCounter("fuzz.programs")
	mismatches := obs.GetCounter("fuzz.mismatches")
	trapskips := obs.GetCounter("fuzz.trapskips")
	verifyfails := obs.GetCounter("fuzz.verifyfail")

	// Each program fills its own slot; the slots fold in index order below.
	type slot struct {
		stats    []TransformStats // by index into trs
		failures []Failure
		oracle   bool // the oracle itself failed
	}
	slots := make([]slot, cfg.N)
	core.ForEach(cfg.Workers, cfg.N, func(i int) {
		sl := &slots[i]
		progSeed := cfg.Seed + int64(i)
		src := progen.GenerateCfg(rand.New(rand.NewSource(progSeed)), gen)
		programs.Inc()
		p, err := prepare(src)
		if err != nil {
			// A generator bug, not a transform bug: surface it as a
			// campaign-level failure with no transform attached.
			sl.oracle = true
			sl.failures = append(sl.failures, Failure{
				Seed: progSeed, Transform: "oracle", Verdict: TransformError,
				Detail: err.Error(), Repro: src,
			})
			return
		}
		sl.stats = make([]TransformStats, len(trs))
		for j, tr := range trs {
			start := time.Now()
			seed := cellSeed(progSeed, tr.Name)
			v, detail := p.check(tr, seed, vm.Engine{})
			elapsed := time.Since(start)
			obs.GetTimer("fuzz.transform." + tr.Name).Observe(elapsed)
			st := &sl.stats[j]
			st.Nanos += elapsed.Nanoseconds()
			switch v {
			case Equal:
				st.Equal++
			case TrapSkipped:
				st.TrapSkipped++
				trapskips.Inc()
			case Mismatch:
				st.Mismatch++
				mismatches.Inc()
			case EngineDiverged:
				st.EngineDiverged++
				mismatches.Inc()
			case ThawDiverged:
				st.ThawDiverged++
				mismatches.Inc()
			case VerifyFail:
				st.VerifyFail++
				verifyfails.Inc()
			default:
				st.Errors++
				mismatches.Inc()
			}
			if v.Failure() {
				repro := src
				if cfg.Shrink {
					repro = ShrinkFailure(src, tr, seed, vm.Engine{})
				}
				sl.failures = append(sl.failures, Failure{
					Seed: progSeed, Transform: tr.Name, Verdict: v,
					Detail: detail, Repro: repro,
				})
			}
		}
	})
	for _, sl := range slots {
		if sl.oracle {
			res.OracleErrs++
		}
		for j, st := range sl.stats {
			res.Stats[trs[j].Name].add(st)
		}
		res.Failures = append(res.Failures, sl.failures...)
	}

	// Failure order must not depend on worker scheduling.
	sort.Slice(res.Failures, func(i, j int) bool {
		if res.Failures[i].Seed != res.Failures[j].Seed {
			return res.Failures[i].Seed < res.Failures[j].Seed
		}
		return res.Failures[i].Transform < res.Failures[j].Transform
	})

	if cfg.CrashersDir != "" && len(res.Failures) > 0 {
		if err := WriteCrashers(cfg.CrashersDir, res.Failures); err != nil {
			return res, err
		}
	}
	return res, nil
}

// ShrinkFailure minimizes src while the transform still fails on it under
// CheckOne with eng and the cell seed, so an EngineDiverged cell shrinks
// while the engines still disagree. The oracle is recomputed per candidate,
// so shrinking can never convert a transform bug into a generator artifact.
func ShrinkFailure(src string, tr Transform, seed int64, eng interp.Engine) string {
	return Shrink(src, func(cand string) bool {
		v, _, err := CheckOne(cand, tr, seed, eng)
		return err == nil && v.Failure()
	})
}

// WriteCrashers writes one annotated repro file per failure into dir.
func WriteCrashers(dir string, failures []Failure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range failures {
		name := fmt.Sprintf("crasher_%s_%d.c", sanitize(f.Transform), f.Seed)
		body := fmt.Sprintf("// transform: %s\n// seed: %d\n// verdict: %s\n// detail: %s\n%s",
			f.Transform, f.Seed, f.Verdict, strings.ReplaceAll(f.Detail, "\n", " "), f.Repro)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, s)
}
