package interp

import "repro/internal/ir"

// Engine executes IR modules. The tree-walking interpreter in this package
// is the reference implementation (Tree); internal/vm's compiled bytecode
// engine must reproduce its observable semantics bit-for-bit: same Result
// (Ret, Output, Steps), same trap classes, same memory model. The
// differential-fuzz harness runs the two against each other.
type Engine interface {
	// Name is the stable identifier used in reports and divergence details.
	Name() string
	// Run executes @main of m under opts, exactly like interp.Run.
	Run(m *ir.Module, opts Options) (*Result, error)
}

// Tree is the tree-walking interpreter as an Engine: the reference oracle
// every other engine is checked against.
var Tree Engine = treeEngine{}

type treeEngine struct{}

func (treeEngine) Name() string                                    { return "tree" }
func (treeEngine) Run(m *ir.Module, opts Options) (*Result, error) { return Run(m, opts) }
