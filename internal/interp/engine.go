package interp

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ir"
)

// Engine executes IR modules. The tree-walking interpreter in this package
// is the reference implementation ("tree"); internal/vm registers a compiled
// bytecode engine ("vm") that must reproduce its observable semantics
// bit-for-bit: same Result (Ret, Output, Steps), same trap classes, same
// memory model. Callers select an engine by name (the -engine flag of
// arena fuzz/speedup/serve); the differential-fuzz harness runs the two
// against each other.
type Engine interface {
	// Name is the stable identifier used by -engine flags and reports.
	Name() string
	// Run executes @main of m under opts, exactly like interp.Run.
	Run(m *ir.Module, opts Options) (*Result, error)
}

var (
	enginesMu sync.RWMutex
	engines   = make(map[string]Engine)
)

// RegisterEngine makes an engine selectable by name. Engines register from
// their package init; a duplicate name panics because it means two packages
// claim the same -engine value.
func RegisterEngine(e Engine) {
	enginesMu.Lock()
	defer enginesMu.Unlock()
	if _, dup := engines[e.Name()]; dup {
		panic("interp: duplicate engine " + e.Name())
	}
	engines[e.Name()] = e
}

// EngineByName resolves an -engine flag value. The empty string means the
// tree interpreter, so every call site has a sane default.
func EngineByName(name string) (Engine, error) {
	if name == "" {
		name = "tree"
	}
	enginesMu.RLock()
	defer enginesMu.RUnlock()
	if e, ok := engines[name]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("interp: unknown engine %q (have %v)", name, engineNamesLocked())
}

// EngineNames returns the registered engine names, sorted.
func EngineNames() []string {
	enginesMu.RLock()
	defer enginesMu.RUnlock()
	return engineNamesLocked()
}

func engineNamesLocked() []string {
	names := make([]string, 0, len(engines))
	for n := range engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// treeEngine adapts the tree-walking interpreter to the Engine interface.
type treeEngine struct{}

func (treeEngine) Name() string                                    { return "tree" }
func (treeEngine) Run(m *ir.Module, opts Options) (*Result, error) { return Run(m, opts) }

func init() { RegisterEngine(treeEngine{}) }
