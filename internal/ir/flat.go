package ir

import (
	"fmt"
	"math"
)

// Flat is a struct-of-arrays view of a verified Module: every instruction,
// block and function becomes a row in an index-based table, operands become
// (kind, index) pairs in one shared operand array addressed by spans, and
// types, constants and strings are interned into per-module pools. The view
// is built once by Flatten and is strictly read-only afterwards, so any
// number of goroutines may share it — the embedding pipeline, the bytecode
// compiler and the n-gram scanners all walk the same cached Flat with no
// cloning, no pointer chasing and no per-call map[*Instr]int index.
//
// Layout invariants (the flat/pointer equivalence suite pins all of them):
//
//   - Instruction, block and operand rows appear in the module's canonical
//     traversal order: functions in declaration order, blocks in layout
//     order, instructions in block order, operands in argument order. An
//     instruction's module-wide index therefore doubles as its graph node
//     index in the instruction-level embeddings.
//   - Operand, block-argument and switch-value spans are contiguous in that
//     same order, so only the span starts are stored; the end of row i is
//     the start of row i+1. Instrs carries one trailing sentinel row holding
//     the final pool lengths to keep the i+1 access in bounds.
//   - Types[0] is Void, so Ty == 0 means "produces no value" without a
//     lookup. Types are interned structurally (by Type.String(), which fully
//     determines a type), collapsing structurally-equal duplicates that are
//     distinct pointers in the source module.
//   - Consts are interned by (type id, integer payload, float bit pattern)
//     in first-use order. Distinct NaN payloads stay distinct, exactly like
//     the bytecode compiler's constant pool.
//   - Globals[0:len(Mod.Globals)] mirror the module's global table in order;
//     operands referencing globals unknown to the module append trailing
//     rows with Known=false (the VM traps on them, like the pointer path).
//
// Flatten assumes IR that passes Verify. Out-of-contract shapes (operands
// referencing detached instructions or foreign parameters) are preserved
// well enough for the VM to raise the interpreter's trap messages, but the
// embedding builders only promise byte-identical output for verified IR.
type Flat struct {
	Mod *Module

	// Funcs holds one row per module function, in declaration order, plus
	// trailing declaration rows for any foreign call targets encountered in
	// operands. A function with an empty block span is a declaration.
	Funcs []FlatFunc
	// Blocks holds one row per basic block, grouped by function.
	Blocks []FlatBlock
	// Ops is the opcode column, indexed by instruction: one byte per
	// instruction so histogram-style walks stream a dense array.
	Ops []uint8
	// Instrs holds the remaining per-instruction columns plus one sentinel
	// row; spans of row i end where row i+1's spans begin.
	Instrs []FlatInstr
	// Operands is the shared value-operand pool, addressed by Arg spans.
	Operands []Operand
	// BlockArgs is the shared block-operand pool (branch targets, phi
	// incoming blocks) holding module-wide block indices.
	BlockArgs []int32
	// SwitchVals is the shared switch-case-value pool.
	SwitchVals []int64

	// Types is the interned type pool; TypeStrs caches String() per type
	// (computed anyway for interning, and hot in the ir2vec embedding).
	Types    []*Type
	TypeStrs []string
	// Consts is the interned constant pool in first-use order.
	Consts []FlatConst
	// ConstAlias[i] is the first pool index rendering identically to
	// constant i (same type string, same printed payload — Const.Ref()).
	// The pool itself interns by exact bits, which is finer: e.g. distinct
	// NaN payloads stay distinct for the VM but print alike. ProGraML
	// merges value nodes by rendered form, so its builder keys on the
	// alias; precomputing it here keeps the graph build map-free.
	ConstAlias []int32
	// Globals is the global table (module globals first, see above).
	Globals []FlatGlobal
	// Strings pools block labels, builtin names and diagnostic refs.
	Strings []string
	// ParamNames / ParamTypes hold every function's parameters back to
	// back; FlatFunc.Par0/Par1 span them. A parameter operand's Idx points
	// here, so it identifies the parameter object module-wide.
	ParamNames []string
	ParamTypes []int32

	// NumModFuncs is the number of module functions: Funcs[:NumModFuncs]
	// mirror Mod.Functions in order, trailing rows are foreign call targets.
	// Thaw rebuilds the former and shares the latter, exactly like Clone.
	NumModFuncs int32

	// MainIdx is the index of the module's "main" function, or -1.
	MainIdx int32
}

// FlatFunc is one function row. Ins/Blk/Par fields are [start, end) spans
// into Flat.Instrs (and Ops), Flat.Blocks and Flat.ParamNames/ParamTypes.
// Sig and F point into the source module (signatures are immutable and
// shared by Clone too; F lets Thaw share foreign call targets the way Clone
// does, and is never followed for module functions' bodies). NID snapshots
// the function's ID counter so instructions appended to a thawed copy get
// fresh, non-colliding %t numbers.
type FlatFunc struct {
	Name string
	Sig  *Type
	F    *Function
	NID  int32
	Blk0 int32
	Blk1 int32
	Ins0 int32
	Ins1 int32
	Par0 int32
	Par1 int32
}

// IsDecl reports whether the function has no body.
func (f *FlatFunc) IsDecl() bool { return f.Blk0 == f.Blk1 }

// NumParams returns the declared parameter count.
func (f *FlatFunc) NumParams() int { return int(f.Par1 - f.Par0) }

// FlatBlock is one basic-block row: owning function, instruction span and
// the interned label (used verbatim in VM trap messages). Name is the
// Strings index of the block's explicit name, or -1 for unnamed blocks
// whose label derives from ID — Label collapses the two, but Thaw needs the
// split to rebuild a print-identical block.
type FlatBlock struct {
	Fn    int32
	Ins0  int32
	Ins1  int32
	Label int32
	Name  int32
	ID    int32
}

// FlatInstr is one instruction row (minus the opcode, which lives in the
// dense Flat.Ops column). Arg0/BArg0/Sw0 are span starts; the span ends are
// the next row's starts.
type FlatInstr struct {
	Ty    int32 // result type id; 0 = Void = no result
	Blk   int32 // owning block index
	ID    int32 // printing id (%t<ID>)
	Arg0  int32 // operand span start in Flat.Operands
	BArg0 int32 // block-operand span start in Flat.BlockArgs
	Sw0   int32 // switch-value span start in Flat.SwitchVals
	// Aux carries the opcode-specific extra: for OpCall the callee function
	// index, or -2-strID of the builtin name when there is no direct callee
	// (so Aux < 0 means "no direct callee", mirroring Callee == nil); for
	// OpAlloca the allocated element type id; -1 otherwise.
	Aux  int32
	Pred uint8 // icmp/fcmp predicate
}

// OperandKind discriminates the value kinds an operand row can reference.
type OperandKind uint8

// Operand kinds. The two Bad kinds preserve enough of an out-of-contract
// operand (detached instruction, foreign parameter) for the VM to raise the
// interpreter's exact trap message; verified IR never produces them.
const (
	OperInstr    OperandKind = iota // Idx: module-wide instruction index
	OperConst                       // Idx: Flat.Consts index
	OperParam                       // Idx: Flat.ParamNames/ParamTypes index
	OperGlobal                      // Idx: Flat.Globals index
	OperFunc                        // Idx: Flat.Funcs index
	OperBadInstr                    // Idx: Strings index of the value's %t ref
	OperBadParam                    // Idx: Strings index of the parameter name
	OperUnknown                     // unrecognized Value implementation
)

// Operand is one (kind, index) value-operand row.
type Operand struct {
	Kind OperandKind
	Idx  int32
}

// FlatConst is one interned constant: type id plus both payloads (like
// Const, only one of I/F is meaningful per type).
type FlatConst struct {
	Ty int32
	I  int64
	F  float64
}

// FlatGlobal is one global row. Known marks globals registered in the
// module; NameAlias is the index of the first row with the same name (the
// ProGraML builder merges value nodes by global name, like the pointer
// builder's "g|name" key).
type FlatGlobal struct {
	G         *Global
	Elem      int32 // type id of the pointee
	NameAlias int32
	Known     bool
}

// NumInstrs returns the instruction count (the sentinel row excluded).
func (fl *Flat) NumInstrs() int { return len(fl.Instrs) - 1 }

// Op returns the opcode of instruction i.
func (fl *Flat) Op(i int32) Opcode { return Opcode(fl.Ops[i]) }

// Args returns the value operands of instruction i.
func (fl *Flat) Args(i int32) []Operand {
	return fl.Operands[fl.Instrs[i].Arg0:fl.Instrs[i+1].Arg0]
}

// InstrBlockArgs returns the block operands of instruction i (branch
// targets in operand order; phi incoming blocks parallel to Args).
func (fl *Flat) InstrBlockArgs(i int32) []int32 {
	return fl.BlockArgs[fl.Instrs[i].BArg0:fl.Instrs[i+1].BArg0]
}

// InstrSwitchVals returns the switch case values of instruction i.
func (fl *Flat) InstrSwitchVals(i int32) []int64 {
	return fl.SwitchVals[fl.Instrs[i].Sw0:fl.Instrs[i+1].Sw0]
}

// HasResult reports whether instruction i produces an SSA value.
func (fl *Flat) HasResult(i int32) bool { return fl.Instrs[i].Ty != 0 }

// BlockHasTerm reports whether block b ends in a terminator.
func (fl *Flat) BlockHasTerm(b int32) bool {
	blk := &fl.Blocks[b]
	return blk.Ins1 > blk.Ins0 && fl.Op(blk.Ins1-1).IsTerminator()
}

// BlockSuccs returns the successor block indices of block b (the block
// operands of its terminator), or nil.
func (fl *Flat) BlockSuccs(b int32) []int32 {
	if !fl.BlockHasTerm(b) {
		return nil
	}
	return fl.InstrBlockArgs(fl.Blocks[b].Ins1 - 1)
}

// FirstNonPhi returns the instruction index of the first non-phi
// instruction of block b (Ins1 when the block is all phis).
func (fl *Flat) FirstNonPhi(b int32) int32 {
	blk := &fl.Blocks[b]
	for i := blk.Ins0; i < blk.Ins1; i++ {
		if fl.Op(i) != OpPhi {
			return i
		}
	}
	return blk.Ins1
}

// flattener carries the interning state of one Flatten run. All maps are
// build-time only; the finished Flat is map-free.
type flattener struct {
	fl        *Flat
	instrIdx  map[*Instr]int32
	blockIdx  map[*Block]int32
	fnIdx     map[*Function]int32
	globalIdx map[*Global]int32
	gNameIdx  map[string]int32
	typeByPtr map[*Type]int32
	typeByStr map[string]int32
	constIdx  map[constKey]int32
	strIdx    map[string]int32
}

// constKey interns constants by type and exact payload bits; +0.0/-0.0 and
// distinct NaNs stay distinct (the VM constant pool depends on it).
type constKey struct {
	ty int32
	i  int64
	f  uint64
}

func (ft *flattener) typeID(t *Type) int32 {
	if t == nil {
		return 0
	}
	if id, ok := ft.typeByPtr[t]; ok {
		return id
	}
	s := t.String()
	id, ok := ft.typeByStr[s]
	if !ok {
		id = int32(len(ft.fl.Types))
		ft.fl.Types = append(ft.fl.Types, t)
		ft.fl.TypeStrs = append(ft.fl.TypeStrs, s)
		ft.typeByStr[s] = id
	}
	ft.typeByPtr[t] = id
	return id
}

func (ft *flattener) constID(c *Const) int32 {
	k := constKey{ty: ft.typeID(c.Ty), i: c.I, f: math.Float64bits(c.F)}
	if id, ok := ft.constIdx[k]; ok {
		return id
	}
	id := int32(len(ft.fl.Consts))
	ft.fl.Consts = append(ft.fl.Consts, FlatConst{Ty: k.ty, I: c.I, F: c.F})
	ft.constIdx[k] = id
	return id
}

func (ft *flattener) strID(s string) int32 {
	if id, ok := ft.strIdx[s]; ok {
		return id
	}
	id := int32(len(ft.fl.Strings))
	ft.fl.Strings = append(ft.fl.Strings, s)
	ft.strIdx[s] = id
	return id
}

func (ft *flattener) globalID(g *Global) int32 {
	if id, ok := ft.globalIdx[g]; ok {
		return id
	}
	// A global not registered in the module: record it so the operand stays
	// addressable, unknown to the VM (which traps on use, like the pointer
	// compiler's identity-keyed address table).
	id := int32(len(ft.fl.Globals))
	alias, seen := ft.gNameIdx[g.Name]
	if !seen {
		alias = id
		ft.gNameIdx[g.Name] = id
	}
	ft.fl.Globals = append(ft.fl.Globals, FlatGlobal{G: g, Elem: ft.typeID(g.Elem), NameAlias: alias})
	ft.globalIdx[g] = id
	return id
}

func (ft *flattener) funcID(f *Function) int32 {
	if id, ok := ft.fnIdx[f]; ok {
		return id
	}
	// A call target not registered in the module behaves like a declaration
	// (the interpreter reports "call to declaration @name").
	id := int32(len(ft.fl.Funcs))
	ft.fl.Funcs = append(ft.fl.Funcs, FlatFunc{Name: f.Name, Sig: f.Sig, F: f})
	ft.fnIdx[f] = id
	return id
}

func (ft *flattener) operand(fn *Function, ff *FlatFunc, v Value) Operand {
	switch x := v.(type) {
	case *Instr:
		if i, ok := ft.instrIdx[x]; ok {
			return Operand{Kind: OperInstr, Idx: i}
		}
		return Operand{Kind: OperBadInstr, Idx: ft.strID(x.Ref())}
	case *Const:
		return Operand{Kind: OperConst, Idx: ft.constID(x)}
	case *Param:
		if x.Index >= 0 && x.Index < len(fn.Params) && fn.Params[x.Index] == x {
			return Operand{Kind: OperParam, Idx: ff.Par0 + int32(x.Index)}
		}
		return Operand{Kind: OperBadParam, Idx: ft.strID(x.Name)}
	case *Global:
		return Operand{Kind: OperGlobal, Idx: ft.globalID(x)}
	case *Function:
		return Operand{Kind: OperFunc, Idx: ft.funcID(x)}
	}
	return Operand{Kind: OperUnknown}
}

// Flatten builds the struct-of-arrays view of m. The module must not be
// mutated afterwards while the Flat is in use (progcache guarantees this
// for cached masters; transformed modules are flattened after their final
// mutation).
func Flatten(m *Module) *Flat {
	// Counting pass: size every pool exactly once.
	nInstr, nOper, nBArg, nSw, nBlocks, nParams := 0, 0, 0, 0, 0, 0
	for _, f := range m.Functions {
		nParams += len(f.Params)
		nBlocks += len(f.Blocks)
		for _, b := range f.Blocks {
			nInstr += len(b.Instrs)
			for _, in := range b.Instrs {
				nOper += len(in.Args)
				nBArg += len(in.Blocks)
				nSw += len(in.SwitchVals)
			}
		}
	}

	fl := &Flat{
		Mod:         m,
		Funcs:       make([]FlatFunc, len(m.Functions)),
		Blocks:      make([]FlatBlock, 0, nBlocks),
		Ops:         make([]uint8, 0, nInstr),
		Instrs:      make([]FlatInstr, 0, nInstr+1),
		Operands:    make([]Operand, 0, nOper),
		BlockArgs:   make([]int32, 0, nBArg),
		SwitchVals:  make([]int64, 0, nSw),
		ParamNames:  make([]string, 0, nParams),
		ParamTypes:  make([]int32, 0, nParams),
		NumModFuncs: int32(len(m.Functions)),
		MainIdx:     -1,
	}
	ft := &flattener{
		fl:        fl,
		instrIdx:  make(map[*Instr]int32, nInstr),
		blockIdx:  make(map[*Block]int32, nBlocks),
		fnIdx:     make(map[*Function]int32, len(m.Functions)),
		globalIdx: make(map[*Global]int32, len(m.Globals)),
		gNameIdx:  make(map[string]int32, len(m.Globals)),
		typeByPtr: make(map[*Type]int32, 16),
		typeByStr: make(map[string]int32, 16),
		constIdx:  make(map[constKey]int32, 32),
		strIdx:    make(map[string]int32, nBlocks),
	}
	ft.typeID(Void) // pin Void at type id 0

	fl.Globals = make([]FlatGlobal, 0, len(m.Globals))
	for i, g := range m.Globals {
		alias, seen := ft.gNameIdx[g.Name]
		if !seen {
			alias = int32(i)
			ft.gNameIdx[g.Name] = alias
		}
		ft.globalIdx[g] = int32(i)
		fl.Globals = append(fl.Globals, FlatGlobal{G: g, Elem: ft.typeID(g.Elem), NameAlias: alias, Known: true})
	}

	// Index pass: assign every function, block, instruction and parameter
	// its table row before any operand is resolved (operands reference
	// forward instructions and blocks).
	for fi, f := range m.Functions {
		ft.fnIdx[f] = int32(fi)
		ff := &fl.Funcs[fi]
		ff.Name = f.Name
		ff.Sig = f.Sig
		ff.F = f
		ff.NID = int32(f.nid)
		ff.Blk0 = int32(len(fl.Blocks))
		ff.Ins0 = int32(len(fl.Ops))
		ff.Par0 = int32(len(fl.ParamNames))
		for _, p := range f.Params {
			fl.ParamNames = append(fl.ParamNames, p.Name)
			fl.ParamTypes = append(fl.ParamTypes, ft.typeID(p.Ty))
		}
		ff.Par1 = int32(len(fl.ParamNames))
		for _, b := range f.Blocks {
			bi := int32(len(fl.Blocks))
			ft.blockIdx[b] = bi
			ins0 := int32(len(fl.Ops))
			for _, in := range b.Instrs {
				ft.instrIdx[in] = int32(len(fl.Ops))
				fl.Ops = append(fl.Ops, uint8(in.Op))
			}
			nameID := int32(-1)
			if b.Name != "" {
				nameID = ft.strID(b.Name)
			}
			fl.Blocks = append(fl.Blocks, FlatBlock{
				Fn: int32(fi), Ins0: ins0, Ins1: int32(len(fl.Ops)),
				Label: ft.strID(b.Label()),
				Name:  nameID, ID: int32(b.ID),
			})
		}
		ff.Blk1 = int32(len(fl.Blocks))
		ff.Ins1 = int32(len(fl.Ops))
	}
	if mf := m.Func("main"); mf != nil {
		fl.MainIdx = ft.fnIdx[mf]
	}

	// Fill pass: one row per instruction, pools appended in traversal order
	// so every span is contiguous.
	for fi := range m.Functions {
		f := m.Functions[fi]
		ff := &fl.Funcs[fi]
		for _, b := range f.Blocks {
			bi := ft.blockIdx[b]
			for _, in := range b.Instrs {
				row := FlatInstr{
					Ty:    ft.typeID(in.Ty),
					Blk:   bi,
					ID:    int32(in.ID),
					Arg0:  int32(len(fl.Operands)),
					BArg0: int32(len(fl.BlockArgs)),
					Sw0:   int32(len(fl.SwitchVals)),
					Aux:   -1,
					Pred:  uint8(in.Pred),
				}
				for _, a := range in.Args {
					fl.Operands = append(fl.Operands, ft.operand(f, ff, a))
				}
				for _, tb := range in.Blocks {
					fl.BlockArgs = append(fl.BlockArgs, ft.blockIdx[tb])
				}
				fl.SwitchVals = append(fl.SwitchVals, in.SwitchVals...)
				switch in.Op {
				case OpCall:
					if in.Callee != nil {
						row.Aux = ft.funcID(in.Callee)
					} else {
						row.Aux = -2 - ft.strID(in.Builtin)
					}
				case OpAlloca:
					row.Aux = ft.typeID(in.AllocaTy)
				}
				fl.Instrs = append(fl.Instrs, row)
			}
		}
	}
	// Sentinel row: closes the last spans.
	fl.Instrs = append(fl.Instrs, FlatInstr{
		Arg0:  int32(len(fl.Operands)),
		BArg0: int32(len(fl.BlockArgs)),
		Sw0:   int32(len(fl.SwitchVals)),
	})

	fl.ConstAlias = make([]int32, len(fl.Consts))
	byRef := make(map[string]int32, len(fl.Consts))
	for i := range fl.Consts {
		key := fl.TypeStrs[fl.Consts[i].Ty] + "|" + fl.ConstRef(int32(i))
		if first, ok := byRef[key]; ok {
			fl.ConstAlias[i] = first
		} else {
			byRef[key] = int32(i)
			fl.ConstAlias[i] = int32(i)
		}
	}
	return fl
}

// ConstRef renders constant c exactly like Const.Ref.
func (fl *Flat) ConstRef(c int32) string {
	fc := &fl.Consts[c]
	ty := fl.Types[fc.Ty]
	switch {
	case ty.IsFloat():
		if fc.F == math.Trunc(fc.F) && math.Abs(fc.F) < 1e15 {
			return fmt.Sprintf("%.1f", fc.F)
		}
		return fmt.Sprintf("%g", fc.F)
	case ty.IsPtr():
		return "null"
	default:
		return fmt.Sprintf("%d", fc.I)
	}
}
