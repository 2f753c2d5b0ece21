// Package passes implements the optimizer of the arena: classic scalar
// optimizations over the SSA IR (mem2reg, SCCP, DCE, SimplifyCFG,
// InstCombine, GVN, LICM, inlining) arranged into clang-like -O0/-O1/-O2/-O3
// pipelines. In the paper's games the optimizer plays two roles: an evader
// (clang -O3 hides programs about as well as O-LLVM) and a normalizer (the
// Game-3 classifier optimizes challenges to undo naive obfuscation).
package passes

import (
	"fmt"

	"repro/internal/ir"
)

// Level selects an optimization pipeline.
type Level int

// Optimization levels mirroring clang's.
const (
	O0 Level = iota
	O1
	O2
	O3
)

// ParseLevel converts "O0".."O3" (or "-O0".."-O3") to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "O0", "-O0", "0":
		return O0, nil
	case "O1", "-O1", "1":
		return O1, nil
	case "O2", "-O2", "2":
		return O2, nil
	case "O3", "-O3", "3":
		return O3, nil
	}
	return O0, fmt.Errorf("unknown optimization level %q", s)
}

func (l Level) String() string { return [...]string{"O0", "O1", "O2", "O3"}[l] }

// funcPasses is every per-function pass by name: the one mapping both the
// pipelines below and RunPass read. Each reports whether it changed anything.
var funcPasses = map[string]func(*ir.Function) bool{
	"mem2reg":     Mem2Reg,
	"instcombine": InstCombine,
	"simplifycfg": SimplifyCFG,
	"sccp":        SCCP,
	"dce":         DCE,
	"gvn":         GVN,
	"licm":        LICM,
	"unroll":      UnrollLoops,
}

// pass is one entry of a pipeline stage.
type pass struct {
	name string
	run  func(*ir.Function) bool
}

// stage resolves pass names against funcPasses, once, at package init.
func stage(names ...string) []pass {
	s := make([]pass, len(names))
	for i, n := range names {
		fn, ok := funcPasses[n]
		if !ok {
			panic("passes: pipeline names unknown pass " + n)
		}
		s[i] = pass{n, fn}
	}
	return s
}

// scalarStage is the per-function cleanup sequence shared by O1..O3.
var scalarStage = stage("mem2reg", "instcombine", "simplifycfg", "sccp", "dce", "simplifycfg")

// pipelines lists each level's stages in order. A stage runs its passes over
// every function before the next stage starts; O3 inlines before its first.
var pipelines = map[Level][][]pass{
	O1: {scalarStage},
	O2: {scalarStage, stage("gvn", "instcombine", "dce", "simplifycfg")},
	O3: {scalarStage, stage("gvn", "licm", "instcombine", "unroll", "gvn", "sccp",
		"dce", "simplifycfg", "instcombine", "dce", "simplifycfg")},
}

// Optimize runs the pipeline for the given level over the module, mutating
// it in place. The input module is expected to be verified; the output is
// re-verified and any violation is reported as an error (it would be a bug
// in a pass).
func Optimize(m *ir.Module, level Level) error {
	if level == O0 {
		return nil
	}
	if level == O3 {
		Inline(m, 60)
	}
	for _, s := range pipelines[level] {
		runStage(m, s)
	}
	if err := m.Verify(); err != nil {
		return fmt.Errorf("passes: %s pipeline produced invalid IR: %w", level, err)
	}
	return nil
}

func runStage(m *ir.Module, s []pass) {
	for _, f := range m.Functions {
		if f.IsDecl() {
			continue
		}
		for _, p := range s {
			p.run(f)
		}
	}
}

// RunPass runs a single named pass over every function (used by tests and
// the CLI's -passes flag). Known names: mem2reg, instcombine, simplifycfg,
// sccp, dce, gvn, licm, unroll and inline.
func RunPass(m *ir.Module, name string) (bool, error) {
	if name == "inline" {
		return Inline(m, 60), nil
	}
	fn, ok := funcPasses[name]
	if !ok {
		return false, fmt.Errorf("unknown pass %q", name)
	}
	changed := false
	for _, f := range m.Functions {
		if !f.IsDecl() && fn(f) {
			changed = true
		}
	}
	return changed, nil
}
