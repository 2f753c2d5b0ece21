// Package interp executes IR modules in a flat byte-addressed memory model.
// It serves two purposes in the arena: (1) semantics-preservation testing —
// every obfuscation and optimization pass is validated by comparing program
// output before and after the transformation; (2) the performance experiment
// of the paper (Figure 13), where the dynamic instruction count stands in
// for wall-clock time.
package interp

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/ir"
)

// Result is the outcome of executing a module.
type Result struct {
	// Ret is main's return value.
	Ret int64
	// Output is everything the program printed.
	Output string
	// Steps is the number of executed instructions (the paper's
	// architecture-independent time proxy for Figure 13).
	Steps int64
}

// Options configure execution.
type Options struct {
	// Input is consumed by the input builtins, one value per call.
	Input []int64
	// FloatInput is consumed by inputf.
	FloatInput []float64
	// MaxSteps aborts execution after this many instructions (0 = default
	// of 200 million, protecting tests against accidental infinite loops).
	MaxSteps int64
	// MaxMem bounds the memory arena in bytes (0 = 64 MiB).
	MaxMem int
}

// Val is a dynamic value: integers and pointers in I, floats in F.
type Val = ir.Scalar

type frame struct {
	fn   *ir.Function
	vals map[*ir.Instr]Val
	args []Val
	// sp is the stack pointer to restore on return.
	sp int
}

// Machine executes one module.
type Machine struct {
	mod   *ir.Module
	mem   []byte
	sp    int // bump pointer for stack allocations
	heapN int
	opts  Options

	inI, inF int
	out      strings.Builder
	steps    int64
	maxSteps int64

	globalAddr map[*ir.Global]int64
	callDepth  int
}

// errTrap is a runtime trap (bad memory access, division by zero, budget
// exhaustion); it aborts execution with an error rather than panicking.
type errTrap struct{ msg string }

func (e errTrap) Error() string { return e.msg }

// Run executes fn main of the module with the given options.
func Run(m *ir.Module, opts Options) (*Result, error) {
	mach, err := NewMachine(m, opts)
	if err != nil {
		return nil, err
	}
	return mach.RunMain()
}

// NewMachine prepares an execution machine: memory arena plus globals.
func NewMachine(m *ir.Module, opts Options) (*Machine, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 200_000_000
	}
	if opts.MaxMem == 0 {
		opts.MaxMem = 64 << 20
	}
	mach := &Machine{
		mod:        m,
		mem:        make([]byte, 1<<16),
		sp:         16, // keep address 0 invalid (null)
		opts:       opts,
		maxSteps:   opts.MaxSteps,
		globalAddr: make(map[*ir.Global]int64),
	}
	for _, g := range m.Globals {
		addr, err := mach.alloc(g.Elem.Size())
		if err != nil {
			return nil, err
		}
		mach.globalAddr[g] = addr
		if err := mach.initGlobal(g, addr); err != nil {
			return nil, err
		}
	}
	return mach, nil
}

func (mc *Machine) initGlobal(g *ir.Global, addr int64) error {
	elem := g.Elem
	switch {
	case elem.IsArray():
		sz := elem.Elem.Size()
		for i, v := range g.InitI {
			mc.storeScalar(addr+int64(i*sz), elem.Elem, Val{I: v})
		}
		for i, v := range g.InitF {
			mc.storeScalar(addr+int64(i*sz), elem.Elem, Val{F: v})
		}
	default:
		if len(g.InitI) > 0 {
			mc.storeScalar(addr, elem, Val{I: g.InitI[0]})
		}
		if len(g.InitF) > 0 {
			mc.storeScalar(addr, elem, Val{F: g.InitF[0]})
		}
	}
	return nil
}

func (mc *Machine) alloc(size int) (int64, error) {
	if size < 0 {
		return 0, errTrap{"negative allocation"}
	}
	// Round to 8 bytes for alignment.
	size = (size + 7) &^ 7
	if mc.sp+size > mc.opts.MaxMem {
		return 0, errTrap{"out of memory"}
	}
	if need := mc.sp + size; need > len(mc.mem) {
		// Double up to the demand, but never past MaxMem: the bound is a
		// promise about arena footprint, not just about program behavior.
		newLen := len(mc.mem)
		for newLen < need {
			newLen *= 2
		}
		if newLen > mc.opts.MaxMem {
			newLen = mc.opts.MaxMem
		}
		grown := make([]byte, newLen)
		copy(grown, mc.mem)
		mc.mem = grown
	}
	addr := int64(mc.sp)
	mc.sp += size
	return addr, nil
}

// RunMain executes @main with no arguments.
func (mc *Machine) RunMain() (res *Result, err error) {
	main := mc.mod.Func("main")
	if main == nil {
		return nil, fmt.Errorf("interp: module has no main")
	}
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(errTrap); ok {
				err = fmt.Errorf("interp: trap: %s", t.msg)
				return
			}
			panic(r)
		}
	}()
	v, err := mc.call(main, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Ret: v.I, Output: mc.out.String(), Steps: mc.steps}, nil
}

// Call executes an arbitrary function with the given arguments (used by
// property tests that compare functions before/after transformation).
func (mc *Machine) Call(name string, args ...Val) (v Val, err error) {
	f := mc.mod.Func(name)
	if f == nil {
		return Val{}, fmt.Errorf("interp: no function %s", name)
	}
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(errTrap); ok {
				err = fmt.Errorf("interp: trap: %s", t.msg)
				return
			}
			panic(r)
		}
	}()
	return mc.call(f, args)
}

// Steps returns the instructions executed so far.
func (mc *Machine) Steps() int64 { return mc.steps }

// Output returns everything printed so far.
func (mc *Machine) Output() string { return mc.out.String() }

func (mc *Machine) call(f *ir.Function, args []Val) (Val, error) {
	if f.IsDecl() {
		return Val{}, errTrap{"call to declaration @" + f.Name}
	}
	mc.callDepth++
	if mc.callDepth > 10000 {
		panic(errTrap{"call stack overflow"})
	}
	fr := &frame{fn: f, vals: make(map[*ir.Instr]Val, 32), args: args, sp: mc.sp}
	defer func() {
		mc.sp = fr.sp // free the frame's allocas
		mc.callDepth--
	}()

	block := f.Entry()
	var prev *ir.Block
	for {
		nextBlock, retVal, done, err := mc.execBlock(fr, block, prev)
		if err != nil {
			return Val{}, err
		}
		if done {
			return retVal, nil
		}
		prev, block = block, nextBlock
	}
}

func (mc *Machine) execBlock(fr *frame, b, prev *ir.Block) (*ir.Block, Val, bool, error) {
	// Phis evaluate simultaneously from the incoming edge.
	phis := b.Phis()
	if len(phis) > 0 {
		tmp := make([]Val, len(phis))
		for i, phi := range phis {
			inc := phi.PhiIncoming(prev)
			if inc == nil {
				panic(errTrap{"phi has no incoming value for edge " + prev.Label() + "->" + b.Label()})
			}
			tmp[i] = mc.eval(fr, inc)
		}
		for i, phi := range phis {
			fr.vals[phi] = tmp[i]
			mc.step()
		}
	}
	for _, in := range b.Instrs[len(phis):] {
		mc.step()
		switch in.Op {
		case ir.OpRet:
			if len(in.Args) == 0 {
				return nil, Val{}, true, nil
			}
			return nil, mc.eval(fr, in.Args[0]), true, nil
		case ir.OpBr:
			return in.Blocks[0], Val{}, false, nil
		case ir.OpCondBr:
			if mc.eval(fr, in.Args[0]).I != 0 {
				return in.Blocks[0], Val{}, false, nil
			}
			return in.Blocks[1], Val{}, false, nil
		case ir.OpSwitch:
			v := mc.eval(fr, in.Args[0]).I
			target := in.Blocks[0]
			for i, sv := range in.SwitchVals {
				if sv == v {
					target = in.Blocks[i+1]
					break
				}
			}
			return target, Val{}, false, nil
		case ir.OpUnreachable:
			panic(errTrap{"reached unreachable in @" + fr.fn.Name})
		default:
			v, err := mc.execInstr(fr, in)
			if err != nil {
				return nil, Val{}, false, err
			}
			if in.HasResult() {
				fr.vals[in] = v
			}
		}
	}
	panic(errTrap{"block " + b.Label() + " fell through without terminator"})
}

func (mc *Machine) step() {
	mc.steps++
	if mc.steps > mc.maxSteps {
		panic(errTrap{"instruction budget exhausted (" + strconv.FormatInt(mc.maxSteps, 10) + ")"})
	}
}

func (mc *Machine) eval(fr *frame, v ir.Value) Val {
	switch x := v.(type) {
	case *ir.Const:
		if x.Ty.IsFloat() {
			return Val{F: x.F}
		}
		return Val{I: x.I}
	case *ir.Param:
		if x.Index >= len(fr.args) {
			panic(errTrap{"missing argument " + x.Name})
		}
		return fr.args[x.Index]
	case *ir.Instr:
		val, ok := fr.vals[x]
		if !ok {
			panic(errTrap{"use of undefined value " + x.Ref() + " in @" + fr.fn.Name})
		}
		return val
	case *ir.Global:
		addr, ok := mc.globalAddr[x]
		if !ok {
			// A global that was never registered with the module would
			// otherwise evaluate to address 0 and surface much later as a
			// baffling memory trap; name the culprit at the use site.
			panic(errTrap{"use of unknown global @" + x.Name + " in @" + fr.fn.Name})
		}
		return Val{I: addr}
	case *ir.Function:
		panic(errTrap{"function pointers are not supported"})
	}
	panic(errTrap{"unknown value kind"})
}

func (mc *Machine) execInstr(fr *frame, in *ir.Instr) (Val, error) {
	switch {
	case in.Op.IsIntBinary(), in.Op.IsFloatBinary(), in.Op == ir.OpICmp, in.Op == ir.OpFCmp:
		return mc.scalar(fr, in, mc.eval(fr, in.Args[0]), mc.eval(fr, in.Args[1])), nil
	case in.Op == ir.OpFNeg, in.Op >= ir.OpTrunc && in.Op <= ir.OpUIToFP: // the numeric casts
		return mc.scalar(fr, in, mc.eval(fr, in.Args[0]), Val{}), nil
	}

	switch in.Op {
	case ir.OpAlloca:
		addr, err := mc.alloc(in.AllocaTy.Size())
		if err != nil {
			return Val{}, err
		}
		return Val{I: addr}, nil

	case ir.OpLoad:
		addr := mc.eval(fr, in.Args[0]).I
		return mc.loadScalar(addr, in.Ty), nil

	case ir.OpStore:
		v := mc.eval(fr, in.Args[0])
		addr := mc.eval(fr, in.Args[1]).I
		mc.storeScalar(addr, in.Args[0].Type(), v)
		return Val{}, nil

	case ir.OpGEP:
		base := mc.eval(fr, in.Args[0]).I
		elem := in.Args[0].Type().Elem
		idx0 := mc.eval(fr, in.Args[1]).I
		addr := base + idx0*int64(elem.Size())
		for _, ix := range in.Args[2:] {
			switch {
			case elem.IsArray():
				elem = elem.Elem
				addr += mc.eval(fr, ix).I * int64(elem.Size())
			case elem.IsStruct():
				fi := mc.eval(fr, ix).I
				if fi < 0 || int(fi) >= len(elem.Fields) {
					panic(errTrap{"gep struct field index out of range"})
				}
				addr += int64(elem.FieldOffset(int(fi)))
				elem = elem.Fields[fi]
			default:
				panic(errTrap{"gep into non-aggregate"})
			}
		}
		return Val{I: addr}, nil

	case ir.OpSelect:
		if mc.eval(fr, in.Args[0]).I != 0 {
			return mc.eval(fr, in.Args[1]), nil
		}
		return mc.eval(fr, in.Args[2]), nil

	case ir.OpCall:
		args := make([]Val, len(in.Args))
		for i, a := range in.Args {
			args[i] = mc.eval(fr, a)
		}
		if in.Callee != nil {
			return mc.call(in.Callee, args)
		}
		return mc.builtin(in.Builtin, args)

	case ir.OpPtrToInt, ir.OpIntToPtr, ir.OpBitcast, ir.OpAddrSpaceCast, ir.OpFreeze:
		return mc.eval(fr, in.Args[0]), nil
	}
	panic(errTrap{"unimplemented opcode " + in.Op.String()})
}

// scalar executes an instruction ir.Eval defines. The only operations it
// reports as not-ok are integer divisions and remainders by zero, which trap.
func (mc *Machine) scalar(fr *frame, in *ir.Instr, a, b Val) Val {
	r, ok := ir.Eval(in.Op, in.Pred, in.Args[0].Type(), in.Ty, a, b)
	if !ok {
		panic(errTrap{"division by zero in @" + fr.fn.Name})
	}
	return r
}

// --- memory ---

func (mc *Machine) checkAddr(addr int64, size int) {
	if addr < 16 || addr+int64(size) > int64(mc.sp) || addr+int64(size) > int64(len(mc.mem)) {
		panic(errTrap{fmt.Sprintf("invalid memory access at %d (size %d, break %d)", addr, size, mc.sp)})
	}
}

func (mc *Machine) loadScalar(addr int64, t *ir.Type) Val {
	sz := t.Size()
	mc.checkAddr(addr, sz)
	switch {
	case t.IsFloat():
		bits := binary.LittleEndian.Uint64(mc.mem[addr:])
		return Val{F: math.Float64frombits(bits)}
	case sz == 1:
		v := int64(int8(mc.mem[addr]))
		if t.IsInt() && t.Bits == 1 {
			v &= 1
		}
		return Val{I: v}
	case sz == 4:
		return Val{I: int64(int32(binary.LittleEndian.Uint32(mc.mem[addr:])))}
	default:
		return Val{I: int64(binary.LittleEndian.Uint64(mc.mem[addr:]))}
	}
}

func (mc *Machine) storeScalar(addr int64, t *ir.Type, v Val) {
	sz := t.Size()
	mc.checkAddr(addr, sz)
	switch {
	case t.IsFloat():
		binary.LittleEndian.PutUint64(mc.mem[addr:], math.Float64bits(v.F))
	case sz == 1:
		mc.mem[addr] = byte(v.I)
	case sz == 4:
		binary.LittleEndian.PutUint32(mc.mem[addr:], uint32(v.I))
	default:
		binary.LittleEndian.PutUint64(mc.mem[addr:], uint64(v.I))
	}
}

// --- builtins ---

func (mc *Machine) builtin(name string, args []Val) (Val, error) {
	switch name {
	case "print_i64":
		fmt.Fprintf(&mc.out, "%d\n", args[0].I)
	case "print_f64":
		fmt.Fprintf(&mc.out, "%.6f\n", args[0].F)
	case "print_i8":
		mc.out.WriteByte(byte(args[0].I))
	case "print_str":
		addr := args[0].I
		for {
			mc.checkAddr(addr, 1)
			ch := mc.mem[addr]
			if ch == 0 {
				break
			}
			mc.out.WriteByte(ch)
			addr++
		}
	case "input_i64":
		if mc.inI < len(mc.opts.Input) {
			v := mc.opts.Input[mc.inI]
			mc.inI++
			return Val{I: v}, nil
		}
		return Val{I: 0}, nil
	case "input_f64":
		if mc.inF < len(mc.opts.FloatInput) {
			v := mc.opts.FloatInput[mc.inF]
			mc.inF++
			return Val{F: v}, nil
		}
		return Val{F: 0}, nil
	case "sqrt":
		return Val{F: math.Sqrt(args[0].F)}, nil
	case "fabs":
		return Val{F: math.Abs(args[0].F)}, nil
	case "sin":
		return Val{F: math.Sin(args[0].F)}, nil
	case "cos":
		return Val{F: math.Cos(args[0].F)}, nil
	case "exp":
		return Val{F: math.Exp(args[0].F)}, nil
	case "log":
		return Val{F: math.Log(args[0].F)}, nil
	case "floor":
		return Val{F: math.Floor(args[0].F)}, nil
	case "pow":
		return Val{F: math.Pow(args[0].F, args[1].F)}, nil
	case "abs_i64":
		v := args[0].I
		if v < 0 {
			v = -v
		}
		return Val{I: v}, nil
	default:
		panic(errTrap{"unknown builtin " + name})
	}
	return Val{}, nil
}
