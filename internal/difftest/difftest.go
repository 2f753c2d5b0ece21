// Package difftest is the differential-testing harness behind `arena fuzz`
// and `make fuzz-smoke`: it compiles generated MiniC programs, records the
// unoptimized interpreter run as the semantic oracle, then pushes the same
// source through every registered transformation — each optimization pass,
// the O1–O3 pipelines, each obfuscator and composed evader pipelines — and
// demands that the module still verifies and behaves identically.
//
// # Trap-equivalence policy
//
// Observable behaviour is (stdout, exit value, trap kind). Two runs are
// compared under the policy the repo documents in DESIGN.md:
//
//   - If the oracle run completes without trapping, every transformed run
//     must also complete without trapping, with bit-identical stdout and
//     exit value. The transformed run gets a step budget of 64x the oracle's
//     step count plus a constant slack, so a legal slowdown (obfuscators
//     routinely cost ~8x) never reads as a divergence, while a transform
//     that introduces nontermination still fails loudly.
//   - If the oracle run traps, traps are not treated as observable events:
//     an optimizer may legally delete an unreachable trapping instruction or
//     reorder a trap with respect to output. The transformed run may either
//     trap (any kind) or complete cleanly, and the shorter of the two stdout
//     streams must be a prefix of the longer. Such cells count as
//     "trap-skipped", never as "equal".
//
// progen generates trap-free programs by construction, so in practice the
// second clause only fires for hand-written or shrunk repro inputs.
package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obfus"
	"repro/internal/passes"
)

// OracleMaxSteps is the interpreter budget for the O0 oracle run. progen
// programs terminate in well under a million steps; the headroom is for
// hand-written repro inputs.
const OracleMaxSteps = 16 << 20

// budgetFor returns the transformed run's step budget given the oracle's
// step count: generous enough for legal slowdowns, finite enough to catch
// introduced nontermination.
func budgetFor(oracleSteps int64) int64 { return 64*oracleSteps + 65536 }

// Obs is the observable behaviour of one interpreter run.
type Obs struct {
	Ret   int64  // main's return value (0 if trapped)
	Out   string // everything printed before completion or trap
	Trap  string // trap kind ("" = completed): div0, mem, budget, stack, unreachable, other
	Steps int64  // instructions executed
}

func (o Obs) String() string {
	if o.Trap != "" {
		return fmt.Sprintf("trap=%s out=%q steps=%d", o.Trap, o.Out, o.Steps)
	}
	return fmt.Sprintf("ret=%d out=%q steps=%d", o.Ret, o.Out, o.Steps)
}

// trapKind folds the interpreter's trap message into a stable category so
// failure reports and crasher filenames stay short and diffable.
func trapKind(err error) string {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "division by zero"):
		return "div0"
	case strings.Contains(msg, "invalid memory access"),
		strings.Contains(msg, "negative allocation"),
		strings.Contains(msg, "out of memory"):
		return "mem"
	case strings.Contains(msg, "instruction budget exhausted"):
		return "budget"
	case strings.Contains(msg, "call stack overflow"):
		return "stack"
	case strings.Contains(msg, "reached unreachable"):
		return "unreachable"
	default:
		return "other"
	}
}

// Observe runs m on eng under the given step budget and captures its
// behaviour. Interpreter errors become trap observations rather than Go
// errors: a trap is a legitimate program behaviour under the equivalence
// policy. Every engine reports the same Obs for the same module by
// contract; EngineCheck enforces it.
func Observe(m *ir.Module, maxSteps int64, eng interp.Engine) Obs {
	res, err := eng.Run(m, interp.Options{MaxSteps: maxSteps})
	if err != nil {
		o := Obs{Trap: trapKind(err)}
		if res != nil {
			o.Out = res.Output
			o.Steps = res.Steps
		}
		return o
	}
	return Obs{Ret: res.Ret, Out: res.Output, Steps: res.Steps}
}

// Oracle compiles src at O0 and records its behaviour on the tree
// interpreter, which every transformed run is then compared against.
func Oracle(src string) (Obs, error) {
	m, err := minic.CompileSource(src, "oracle")
	if err != nil {
		return Obs{}, fmt.Errorf("oracle compile: %w", err)
	}
	if err := m.Verify(); err != nil {
		return Obs{}, fmt.Errorf("oracle verify: %w", err)
	}
	return Observe(m, OracleMaxSteps, interp.Tree), nil
}

// Verdict classifies one (program, transform) cell.
type Verdict int

// The verdicts, from best to worst. Mismatch, EngineDiverged, VerifyFail
// and TransformError are failures; Equal and TrapSkipped are not.
const (
	Equal          Verdict = iota // identical observable behaviour
	TrapSkipped                   // oracle trapped; compared under the relaxed trap clause
	Mismatch                      // observable behaviour diverged
	EngineDiverged                // two execution engines disagreed on the same module
	VerifyFail                    // ir.Verify failed after the transform
	TransformError                // the transform itself returned an error
)

func (v Verdict) String() string {
	switch v {
	case Equal:
		return "equal"
	case TrapSkipped:
		return "trap-skipped"
	case Mismatch:
		return "mismatch"
	case EngineDiverged:
		return "engine-diverged"
	case VerifyFail:
		return "verify-fail"
	default:
		return "transform-error"
	}
}

// Failure reports whether the verdict means the transform broke semantics.
func (v Verdict) Failure() bool { return v >= Mismatch }

// Equivalent applies the trap-equivalence policy documented on the package.
func Equivalent(oracle, got Obs) (Verdict, string) {
	if oracle.Trap == "" {
		if got.Trap != "" {
			return Mismatch, fmt.Sprintf("oracle completed but transformed trapped: %s vs %s", oracle, got)
		}
		if got.Ret != oracle.Ret || got.Out != oracle.Out {
			return Mismatch, fmt.Sprintf("output diverged: %s vs %s", oracle, got)
		}
		return Equal, ""
	}
	// Trapping oracle: the transform may remove, reorder or change the
	// trap; only already-produced output constrains it.
	a, b := oracle.Out, got.Out
	if len(b) < len(a) {
		a, b = b, a
	}
	if !strings.HasPrefix(b, a) {
		return Mismatch, fmt.Sprintf("outputs not prefix-compatible across trap: %s vs %s", oracle, got)
	}
	return TrapSkipped, ""
}

// Transform is one registered transformation under test.
type Transform struct {
	Name  string
	Group string // pass | pipeline | obfus | composed | source
	Apply func(src string, rng *rand.Rand) (*ir.Module, error)
	// ApplyMod is the module-level half of the transform: it mutates a
	// module the caller already compiled. Apply is compile followed by
	// ApplyMod for every group except "source" (whose transforms rewrite
	// MiniC text and therefore have no module form; ApplyMod is nil there).
	// The thaw-equivalence campaign uses ApplyMod to run one transform over
	// two differently-obtained copies of the same module.
	ApplyMod func(m *ir.Module, rng *rand.Rand) error
}

// compile is the front half shared by the pass/pipeline/obfus transforms.
// Each cell compiles privately (no progcache) so a cache bug can never mask
// or fabricate a transform bug.
func compile(src string) (*ir.Module, error) {
	return minic.CompileSource(src, "prog")
}

// fromMod lifts a module-level transform into the source-level Apply shape.
func fromMod(mod func(m *ir.Module, rng *rand.Rand) error) func(src string, rng *rand.Rand) (*ir.Module, error) {
	return func(src string, rng *rand.Rand) (*ir.Module, error) {
		m, err := compile(src)
		if err != nil {
			return nil, err
		}
		return m, mod(m, rng)
	}
}

func passTransform(name string) Transform {
	mod := func(m *ir.Module, _ *rand.Rand) error {
		_, err := passes.RunPass(m, name)
		return err
	}
	return Transform{Name: name, Group: "pass", Apply: fromMod(mod), ApplyMod: mod}
}

func pipelineTransform(name string) Transform {
	lvl, _ := passes.ParseLevel(name)
	mod := func(m *ir.Module, _ *rand.Rand) error {
		return passes.Optimize(m, lvl)
	}
	return Transform{Name: name, Group: "pipeline", Apply: fromMod(mod), ApplyMod: mod}
}

func obfusTransform(name string) Transform {
	mod := func(m *ir.Module, rng *rand.Rand) error {
		return obfus.Apply(m, name, rng)
	}
	return Transform{Name: name, Group: "obfus", Apply: fromMod(mod), ApplyMod: mod}
}

// composedTransform chains a core evader with a core normalization level —
// the exact obfuscate-then-normalize composition Game 3 plays. The evaders
// composed here are all module-level obfuscations, so the module form simply
// chains the two mutations; Apply still routes through core.Transform so the
// campaign exercises the same progcache path production uses.
func composedTransform(evader, level string) Transform {
	lvl, _ := passes.ParseLevel(level)
	return Transform{Name: evader + "+" + level, Group: "composed",
		Apply: func(src string, rng *rand.Rand) (*ir.Module, error) {
			m, err := core.Transform(src, evader, rng)
			if err != nil {
				return nil, err
			}
			return m, core.Normalize(m, lvl)
		},
		ApplyMod: func(m *ir.Module, rng *rand.Rand) error {
			if err := obfus.Apply(m, evader, rng); err != nil {
				return err
			}
			return core.Normalize(m, lvl)
		}}
}

func sourceTransform(name string) Transform {
	return Transform{Name: name, Group: "source", Apply: func(src string, rng *rand.Rand) (*ir.Module, error) {
		return core.Transform(src, name, rng)
	}}
}

// PassNames are the individual passes under differential test.
var PassNames = []string{"mem2reg", "instcombine", "simplifycfg", "sccp", "dce", "gvn", "licm", "unroll", "inline"}

// Transforms returns the transform set for a campaign:
//
//	smoke    every pass, pipeline and obfuscator
//	module   smoke plus the composed evader pipelines (default)
//	all      module plus the source-level evader strategies (slow)
//	<name>   just the named transform
func Transforms(set string) ([]Transform, error) {
	var ts []Transform
	for _, p := range PassNames {
		ts = append(ts, passTransform(p))
	}
	for _, lvl := range []string{"O1", "O2", "O3"} {
		ts = append(ts, pipelineTransform(lvl))
	}
	for _, o := range []string{"bcf", "fla", "sub", "ollvm"} {
		ts = append(ts, obfusTransform(o))
	}
	if set == "smoke" {
		return ts, nil
	}
	ts = append(ts,
		composedTransform("bcf", "O2"),
		composedTransform("fla", "O3"),
		composedTransform("ollvm", "O2"),
	)
	switch set {
	case "", "module":
		return ts, nil
	case "all":
		for _, s := range []string{"rs", "mcmc", "drlsg", "ga"} {
			ts = append(ts, sourceTransform(s))
		}
		return ts, nil
	}
	for _, t := range ts {
		if t.Name == set {
			return []Transform{t}, nil
		}
	}
	for _, s := range []string{"rs", "mcmc", "drlsg", "ga"} {
		if s == set {
			return []Transform{sourceTransform(s)}, nil
		}
	}
	return nil, fmt.Errorf("difftest: unknown transform set %q", set)
}

// EngineCheck runs m on both the tree interpreter and eng and demands a
// bit-identical observation: same return value, same output, same trap
// kind, same step count. This is the engine-conformance half of the fuzz
// campaign — unlike transform equivalence there is no relaxed trap clause,
// because the two engines execute the very same module.
func EngineCheck(m *ir.Module, maxSteps int64, eng interp.Engine) (Obs, Verdict, string) {
	tree := Observe(m, maxSteps, interp.Tree)
	got := Observe(m, maxSteps, eng)
	if got != tree {
		return tree, EngineDiverged, fmt.Sprintf("engine %s disagrees with tree: %s vs %s", eng.Name(), got, tree)
	}
	return tree, Equal, ""
}

// CheckOne runs a single (program, transform) cell against a precomputed
// oracle and returns the verdict plus a human-readable detail on failure.
// The transformed module executes on eng and on the tree interpreter; any
// disagreement between the two is EngineDiverged, reported before the
// transform-equivalence comparison.
func CheckOne(src string, tr Transform, rng *rand.Rand, oracle Obs, eng interp.Engine) (Verdict, string) {
	m, err := tr.Apply(src, rng)
	if err != nil {
		return TransformError, err.Error()
	}
	if err := m.Verify(); err != nil {
		return VerifyFail, err.Error()
	}
	got, v, detail := EngineCheck(m, budgetFor(oracle.Steps), eng)
	if v.Failure() {
		return v, detail
	}
	return Equivalent(oracle, got)
}
