// Package difftest is the differential-testing harness behind `arena fuzz`
// and `make fuzz-smoke`: it compiles generated MiniC programs, records the
// unoptimized interpreter run as the semantic oracle, then pushes copies of
// each compiled module through every registered transformation — each
// optimization pass, the O1–O3 pipelines, each obfuscator and composed
// evader pipelines — and demands that the result still verifies and
// behaves identically. Every module-level transform runs on a thawed copy
// (the copy production transforms) and on a clone (the reference), which
// must agree bit for bit.
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
	"repro/internal/srcobf"
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
	_, oracle, err := compileOracle(src)
	return oracle, err
}

func compileOracle(src string) (*ir.Module, Obs, error) {
	m, err := minic.CompileSource(src, "prog")
	if err != nil {
		return nil, Obs{}, fmt.Errorf("oracle compile: %w", err)
	}
	if err := m.Verify(); err != nil {
		return nil, Obs{}, fmt.Errorf("oracle verify: %w", err)
	}
	return m, Observe(m, OracleMaxSteps, interp.Tree), nil
}

// Verdict classifies one (program, transform) cell.
type Verdict int

// The verdicts, from best to worst. Every verdict from Mismatch on is a
// failure; Equal and TrapSkipped are not.
const (
	Equal          Verdict = iota // identical observable behaviour
	TrapSkipped                   // oracle trapped; compared under the relaxed trap clause
	Mismatch                      // observable behaviour diverged
	EngineDiverged                // two execution engines disagreed on the same module
	ThawDiverged                  // the thawed copy and the clone disagreed, or the master changed
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
	case ThawDiverged:
		return "thaw-diverged"
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

// Transform is one registered transformation under test. It has exactly
// one form: Mod mutates a compiled module in place (every pass, pipeline,
// obfuscator and composed pipeline); Src rewrites MiniC text and compiles
// the result (the source-level evader strategies, which have no module form).
type Transform struct {
	Name  string
	Group string // pass | pipeline | obfus | composed | source
	Mod   func(m *ir.Module, rng *rand.Rand) error
	Src   func(src string, rng *rand.Rand) (*ir.Module, error)
}

func passTransform(name string) Transform {
	return Transform{Name: name, Group: "pass", Mod: func(m *ir.Module, _ *rand.Rand) error {
		_, err := passes.RunPass(m, name)
		return err
	}}
}

func pipelineTransform(name string) Transform {
	lvl, _ := passes.ParseLevel(name)
	return Transform{Name: name, Group: "pipeline", Mod: func(m *ir.Module, _ *rand.Rand) error {
		return passes.Optimize(m, lvl)
	}}
}

func obfusTransform(name string) Transform {
	return Transform{Name: name, Group: "obfus", Mod: func(m *ir.Module, rng *rand.Rand) error {
		return obfus.Apply(m, name, rng)
	}}
}

// composedTransform chains a core evader with a core normalization level —
// the exact obfuscate-then-normalize composition Game 3 plays.
func composedTransform(evader, level string) Transform {
	lvl, _ := passes.ParseLevel(level)
	return Transform{Name: evader + "+" + level, Group: "composed", Mod: func(m *ir.Module, rng *rand.Rand) error {
		if err := obfus.Apply(m, evader, rng); err != nil {
			return err
		}
		return core.Normalize(m, lvl)
	}}
}

func sourceTransform(name string) Transform {
	return Transform{Name: name, Group: "source", Src: func(src string, rng *rand.Rand) (*ir.Module, error) {
		return core.Transform(src, name, rng)
	}}
}

// srcobfTransform applies one srcobf transform and compiles the result,
// fuzzing the property srcobf's replay rests on: an applied transform
// leaves a program that compiles. A compile failure is the cell's
// TransformError.
func srcobfTransform(t srcobf.Transform) Transform {
	return Transform{Name: "srcobf:" + t.Name, Group: "source", Src: func(src string, rng *rand.Rand) (*ir.Module, error) {
		f, err := minic.Parse(src)
		if err != nil {
			return nil, err
		}
		t.Apply(f, rng)
		return minic.Compile(f, "prog")
	}}
}

// PassNames are the individual passes under differential test.
var PassNames = []string{"mem2reg", "instcombine", "simplifycfg", "sccp", "dce", "gvn", "licm", "unroll", "inline"}

// Transforms returns the transform set for a campaign:
//
//	smoke    every pass, pipeline and obfuscator
//	module   smoke plus the composed evader pipelines (default)
//	all      module plus the source-level evader strategies and one
//	         srcobf:<name> cell per srcobf transform (slow)
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
	var src []Transform
	for _, s := range srcobf.StrategyNames() {
		src = append(src, sourceTransform(s))
	}
	for _, t := range srcobf.Transforms() {
		src = append(src, srcobfTransform(t))
	}
	switch set {
	case "", "module":
		return ts, nil
	case "all":
		return append(ts, src...), nil
	}
	for _, t := range append(ts, src...) {
		if t.Name == set {
			return []Transform{t}, nil
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

// program is one generated program made ready for its cells: the verified
// O0 master module, the oracle recorded on it, its flat view and its printed
// form. Cells transform copies of the master, never the master itself.
type program struct {
	src    string
	oracle Obs
	master *ir.Module
	flat   *ir.Flat
	text   string
}

func prepare(src string) (*program, error) {
	m, oracle, err := compileOracle(src)
	if err != nil {
		return nil, err
	}
	return &program{src: src, oracle: oracle, master: m, flat: ir.Flatten(m), text: m.String()}, nil
}

// CheckOne compiles src, records its oracle and runs the (program,
// transform) cell under the cell seed; see check. err reports a program the
// oracle itself cannot compile or verify — a generator or shrinker
// artifact, not a verdict on tr.
func CheckOne(src string, tr Transform, seed int64, eng interp.Engine) (Verdict, string, error) {
	p, err := prepare(src)
	if err != nil {
		return 0, "", err
	}
	v, detail := p.check(tr, seed, eng)
	return v, detail, nil
}

// check runs one cell and returns its verdict plus a human-readable detail
// on failure. A module transform is applied, with the same seed, to a
// thawed copy of the master (the copy production transforms) and to a
// clone (the reference). The cell then demands, in order:
//
//  1. both copies return the same error or none (else ThawDiverged;
//     the same error is TransformError);
//  2. both verify (VerifyFail when neither does, ThawDiverged when one does);
//  3. both print the same (ThawDiverged);
//  4. the thawed copy gets the same result on eng and on the tree
//     interpreter (EngineDiverged, see EngineCheck);
//  5. the clone gets that result on the tree interpreter (ThawDiverged);
//  6. that result matches the oracle (Equivalent);
//  7. the master still prints the same and re-flattens to the same tables.
//
// Step 7 runs whatever the earlier steps found, so a transform that writes
// through an object the copies share with the master (a type, a foreign
// declaration) is blamed in the cell that did it. Its ThawDiverged verdict
// replaces the cell's own: a corrupted master is the cause of anything else
// the cell saw. The master is then rebuilt, so later cells start clean.
//
// A source transform has no module to copy: its one result verifies, runs
// steps 4 and 6, and touches no master.
func (p *program) check(tr Transform, seed int64, eng interp.Engine) (Verdict, string) {
	if tr.Src != nil {
		m, err := tr.Src(p.src, rand.New(rand.NewSource(seed)))
		if err != nil {
			return TransformError, err.Error()
		}
		if err := m.Verify(); err != nil {
			return VerifyFail, err.Error()
		}
		return p.run(m, nil, eng)
	}
	v, detail := p.checkCopies(tr, seed, eng)
	if d := p.masterDiff(); d != "" {
		if fresh, err := prepare(p.src); err == nil {
			*p = *fresh
		}
		return ThawDiverged, d
	}
	return v, detail
}

// checkCopies runs steps 1–6 of check.
func (p *program) checkCopies(tr Transform, seed int64, eng interp.Engine) (Verdict, string) {
	th, cl := ir.Thaw(p.flat), p.master.Clone()
	errT := tr.Mod(th, rand.New(rand.NewSource(seed)))
	errC := tr.Mod(cl, rand.New(rand.NewSource(seed)))
	switch {
	case (errT == nil) != (errC == nil) || errT != nil && errT.Error() != errC.Error():
		return ThawDiverged, fmt.Sprintf("transform errors differ: thaw=%v clone=%v", errT, errC)
	case errT != nil:
		return TransformError, errT.Error()
	}
	errT, errC = th.Verify(), cl.Verify()
	switch {
	case errT != nil && errC != nil:
		return VerifyFail, errT.Error()
	case errT != nil || errC != nil:
		return ThawDiverged, fmt.Sprintf("only one copy verifies: thaw=%v clone=%v", errT, errC)
	}
	if a, b := th.String(), cl.String(); a != b {
		return ThawDiverged, fmt.Sprintf("copies print differently:\n--- thaw ---\n%s\n--- clone ---\n%s", a, b)
	}
	return p.run(th, cl, eng)
}

// run executes m on eng and the tree interpreter, checks that the clone
// (when there is one) behaves the same on the tree, and compares the result
// with the oracle.
func (p *program) run(m, clone *ir.Module, eng interp.Engine) (Verdict, string) {
	budget := budgetFor(p.oracle.Steps)
	got, v, detail := EngineCheck(m, budget, eng)
	if v.Failure() {
		return v, detail
	}
	if clone != nil {
		if c := Observe(clone, budget, interp.Tree); c != got {
			return ThawDiverged, fmt.Sprintf("copies behave differently: thaw %s vs clone %s", got, c)
		}
	}
	return Equivalent(p.oracle, got)
}

// masterDiff reports any change to the master since prepare.
func (p *program) masterDiff() string {
	if s := p.master.String(); s != p.text {
		return fmt.Sprintf("master mutated by the cell:\n--- before ---\n%s\n--- after ---\n%s", p.text, s)
	}
	if d := ir.FlatDiff(p.flat, ir.Flatten(p.master)); d != "" {
		return "master no longer re-flattens to its original tables: " + d
	}
	return ""
}
