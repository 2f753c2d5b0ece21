package vm

import (
	"repro/internal/interp"
	"repro/internal/ir"
)

// Engine is the compiled bytecode engine ("vm"). It compiles
// the module on every Run; callers that execute the same module many times
// (benchmarks, the speedup game) should Compile once and reuse the Program.
type Engine struct{}

// Name implements interp.Engine.
func (Engine) Name() string { return "vm" }

// Run implements interp.Engine: compile, then execute @main.
func (Engine) Run(m *ir.Module, opts interp.Options) (*interp.Result, error) {
	p, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return p.Run(opts)
}

// Run compiles and executes m in one shot, like interp.Run.
func Run(m *ir.Module, opts interp.Options) (*interp.Result, error) {
	return Engine{}.Run(m, opts)
}

// BrokenEngine returns an engine with a deliberately miscompiled bytecode
// op — every integer add executes as a subtract. It exists so the
// differential harness can prove it detects (and shrinks) real codegen
// bugs; nothing outside tests runs it.
func BrokenEngine() interp.Engine { return brokenEngine{} }

type brokenEngine struct{}

func (brokenEngine) Name() string { return "vm-broken" }

func (brokenEngine) Run(m *ir.Module, opts interp.Options) (*interp.Result, error) {
	p, err := Compile(m)
	if err != nil {
		return nil, err
	}
	seen := map[*funcCode]bool{}
	for _, fc := range append(p.funcs, p.entry) {
		if fc == nil || seen[fc] {
			continue
		}
		seen[fc] = true
		for i := range fc.code {
			if fc.code[i].op == opAdd {
				fc.code[i].op = opSub
			}
		}
	}
	return p.Run(opts)
}
