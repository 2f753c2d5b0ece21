package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/interp"
	"repro/internal/ir"
)

// errTrap mirrors the interpreter's trap panic; Run recovers it into a
// "vm: trap: ..." error. Conditions the interpreter surfaces as plain
// returned errors (alloc failures, declaration calls) stay plain errors
// here too.
type errTrap struct{ msg string }

func (e errTrap) Error() string { return e.msg }

// machine executes one compiled Program once. Frames live on a single
// high-water val stack (regs); the byte arena and all limits replicate
// interp.Machine exactly.
type machine struct {
	prog *Program
	mem  []byte
	sp   int
	opts interp.Options

	inI, inF  int
	out       strings.Builder
	steps     int64
	maxSteps  int64
	callDepth int

	regs []val
}

func newMachine(p *Program, opts interp.Options) (*machine, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 200_000_000
	}
	if opts.MaxMem == 0 {
		opts.MaxMem = 64 << 20
	}
	m := &machine{
		prog:     p,
		mem:      make([]byte, 1<<16),
		sp:       16, // address 0 stays invalid (null)
		opts:     opts,
		maxSteps: opts.MaxSteps,
	}
	for _, g := range p.mod.Globals {
		addr, err := m.alloc(g.Elem.Size())
		if err != nil {
			return nil, err
		}
		m.initGlobal(g, addr)
	}
	return m, nil
}

func (m *machine) initGlobal(g *ir.Global, addr int64) {
	elem := g.Elem
	switch {
	case elem.IsArray():
		sz := elem.Elem.Size()
		for i, v := range g.InitI {
			m.storeScalar(addr+int64(i*sz), elem.Elem, val{i: v})
		}
		for i, v := range g.InitF {
			m.storeScalar(addr+int64(i*sz), elem.Elem, val{f: v})
		}
	default:
		if len(g.InitI) > 0 {
			m.storeScalar(addr, elem, val{i: g.InitI[0]})
		}
		if len(g.InitF) > 0 {
			m.storeScalar(addr, elem, val{f: g.InitF[0]})
		}
	}
}

func (m *machine) alloc(size int) (int64, error) {
	if size < 0 {
		return 0, errors.New("negative allocation")
	}
	size = (size + 7) &^ 7
	if m.sp+size > m.opts.MaxMem {
		return 0, errors.New("out of memory")
	}
	if need := m.sp + size; need > len(m.mem) {
		newLen := len(m.mem)
		for newLen < need {
			newLen *= 2
		}
		if newLen > m.opts.MaxMem {
			newLen = m.opts.MaxMem
		}
		grown := make([]byte, newLen)
		copy(grown, m.mem)
		m.mem = grown
	}
	addr := int64(m.sp)
	m.sp += size
	return addr, nil
}

// checkAddr traps unless [addr, addr+size) lies in the allocated arena. It
// runs on every load and store, so it stays small enough to inline; the
// trap message is built out of line in addrTrap.
func (m *machine) checkAddr(addr int64, size int) {
	if addr < 16 || addr+int64(size) > int64(m.sp) || addr+int64(size) > int64(len(m.mem)) {
		m.addrTrap(addr, size)
	}
}

//go:noinline
func (m *machine) addrTrap(addr int64, size int) {
	panic(errTrap{fmt.Sprintf("invalid memory access at %d (size %d, break %d)", addr, size, m.sp)})
}

func (m *machine) storeScalar(addr int64, t *ir.Type, v val) {
	sz := t.Size()
	m.checkAddr(addr, sz)
	switch {
	case t.IsFloat():
		binary.LittleEndian.PutUint64(m.mem[addr:], math.Float64bits(v.f))
	case sz == 1:
		m.mem[addr] = byte(v.i)
	case sz == 4:
		binary.LittleEndian.PutUint32(m.mem[addr:], uint32(v.i))
	default:
		binary.LittleEndian.PutUint64(m.mem[addr:], uint64(v.i))
	}
}

// Run executes the program's main with a fresh machine, mirroring
// interp.Run: plain errors for machine-construction and declaration
// failures, "vm: trap: ..." for everything the interpreter panics on, and
// a bit-identical Result on success.
func (p *Program) Run(opts interp.Options) (*interp.Result, error) {
	m, err := newMachine(p, opts)
	if err != nil {
		return nil, err
	}
	if p.mainDecl {
		return nil, errors.New("call to declaration @main")
	}
	if p.entry == nil {
		return nil, fmt.Errorf("vm: module has no main")
	}
	return m.runEntry(p.entry)
}

func (m *machine) runEntry(entry *funcCode) (res *interp.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(errTrap); ok {
				err = fmt.Errorf("vm: trap: %s", t.msg)
				return
			}
			panic(r)
		}
	}()
	m.regs = make([]val, entry.frameSize+256)
	v, err := m.exec(entry, 0)
	if err != nil {
		return nil, err
	}
	return &interp.Result{Ret: v.i, Output: m.out.String(), Steps: m.steps}, nil
}

func (m *machine) ensureRegs(n int) {
	if n <= len(m.regs) {
		return
	}
	newLen := 2 * len(m.regs)
	if newLen < n {
		newLen = n
	}
	grown := make([]val, newLen)
	copy(grown, m.regs)
	m.regs = grown
}

func (m *machine) budget() {
	if m.steps > m.maxSteps {
		panic(errTrap{"instruction budget exhausted (" + strconv.FormatInt(m.maxSteps, 10) + ")"})
	}
}

// exec runs one function activation whose frame starts at base. The caller
// has already written the argument slots; exec copies the constant region
// and dispatches until a return or error.
func (m *machine) exec(fc *funcCode, base int) (val, error) {
	m.callDepth++
	if m.callDepth > 10000 {
		panic(errTrap{"call stack overflow"})
	}
	savedSp := m.sp
	defer func() {
		m.sp = savedSp // free this frame's allocas
		m.callDepth--
	}()

	rs := m.regs[base : base+fc.frameSize]
	copy(rs[fc.constBase:], fc.consts)
	code := fc.code
	pc := 0
	for {
		in := code[pc]
		pc++
		if in.cost != 0 {
			m.steps++
			m.budget()
		}
		switch in.op {
		case opMov:
			rs[in.dst] = rs[in.a]

		// Control flow.
		case opJmp:
			pc = int(in.dst)
		case opCondBr:
			if rs[in.a].i != 0 {
				pc = int(in.dst)
			} else {
				pc = int(in.b)
			}
		case opSwitch:
			v := rs[in.a].i
			pc = int(in.dst)
			for k := in.b; k < in.b+in.c; k++ {
				if fc.swVals[k] == v {
					pc = int(fc.swPCs[k])
					break
				}
			}
		case opSwitchT:
			t := &fc.tabs[in.b]
			pc = int(in.dst)
			// v-lo wraps for tags far outside the table, and the unsigned
			// compare rejects those together with every tag below lo.
			if k := uint64(rs[in.a].i - t.lo); k < uint64(len(t.pcs)) {
				pc = int(t.pcs[k])
			}
		case opRet:
			return rs[in.a], nil
		case opRetVoid:
			return val{}, nil
		case opStepN:
			m.steps += int64(in.c)
			m.budget()
		case opTrap:
			panic(errTrap{fc.msgs[in.a]})
		case opTrapErr:
			return val{}, errors.New(fc.msgs[in.a])

		// Integer arithmetic. sh normalizes the result to its type's width
		// (see shOf): results of types between i1 and i64 are stored
		// sign-extended.
		case opAdd:
			r := rs[in.a].i + rs[in.b].i
			rs[in.dst].i = r << in.sh >> in.sh
		case opSub:
			r := rs[in.a].i - rs[in.b].i
			rs[in.dst].i = r << in.sh >> in.sh
		case opMul:
			r := rs[in.a].i * rs[in.b].i
			rs[in.dst].i = r << in.sh >> in.sh
		case opSDiv:
			a, b := rs[in.a].i, rs[in.b].i
			if b == 0 {
				panic(errTrap{"division by zero in @" + fc.name})
			}
			r := a
			if a != math.MinInt64 || b != -1 {
				r = a / b
			}
			rs[in.dst].i = r << in.sh >> in.sh
		case opUDiv:
			b := rs[in.b].i
			if b == 0 {
				panic(errTrap{"division by zero in @" + fc.name})
			}
			r := int64(uint64(rs[in.a].i) / uint64(b))
			rs[in.dst].i = r << in.sh >> in.sh
		case opSRem:
			a, b := rs[in.a].i, rs[in.b].i
			if b == 0 {
				panic(errTrap{"division by zero in @" + fc.name})
			}
			var r int64
			if a != math.MinInt64 || b != -1 {
				r = a % b
			}
			rs[in.dst].i = r << in.sh >> in.sh
		case opURem:
			b := rs[in.b].i
			if b == 0 {
				panic(errTrap{"division by zero in @" + fc.name})
			}
			r := int64(uint64(rs[in.a].i) % uint64(b))
			rs[in.dst].i = r << in.sh >> in.sh
		case opShl:
			r := rs[in.a].i << (uint64(rs[in.b].i) & 63)
			rs[in.dst].i = r << in.sh >> in.sh
		case opLShr:
			mask := ^uint64(0) >> in.sh
			r := int64((uint64(rs[in.a].i) & mask) >> (uint64(rs[in.b].i) & 63))
			rs[in.dst].i = r << in.sh >> in.sh
		case opAShr:
			r := rs[in.a].i >> (uint64(rs[in.b].i) & 63)
			rs[in.dst].i = r << in.sh >> in.sh
		case opAnd:
			rs[in.dst].i = rs[in.a].i & rs[in.b].i
		case opOr:
			rs[in.dst].i = rs[in.a].i | rs[in.b].i
		case opXor:
			r := rs[in.a].i ^ rs[in.b].i
			rs[in.dst].i = r << in.sh >> in.sh

		// Float arithmetic.
		case opFAdd:
			rs[in.dst].f = rs[in.a].f + rs[in.b].f
		case opFSub:
			rs[in.dst].f = rs[in.a].f - rs[in.b].f
		case opFMul:
			rs[in.dst].f = rs[in.a].f * rs[in.b].f
		case opFDiv:
			rs[in.dst].f = rs[in.a].f / rs[in.b].f
		case opFRem:
			rs[in.dst].f = math.Mod(rs[in.a].f, rs[in.b].f)
		case opFNeg:
			rs[in.dst].f = -rs[in.a].f

		// Comparisons.
		case opIEq:
			rs[in.dst].i = b2i(rs[in.a].i == rs[in.b].i)
		case opINe:
			rs[in.dst].i = b2i(rs[in.a].i != rs[in.b].i)
		case opISlt:
			rs[in.dst].i = b2i(rs[in.a].i < rs[in.b].i)
		case opISle:
			rs[in.dst].i = b2i(rs[in.a].i <= rs[in.b].i)
		case opISgt:
			rs[in.dst].i = b2i(rs[in.a].i > rs[in.b].i)
		case opISge:
			rs[in.dst].i = b2i(rs[in.a].i >= rs[in.b].i)
		case opIUlt:
			rs[in.dst].i = b2i(uint64(rs[in.a].i) < uint64(rs[in.b].i))
		case opIUle:
			rs[in.dst].i = b2i(uint64(rs[in.a].i) <= uint64(rs[in.b].i))
		case opIUgt:
			rs[in.dst].i = b2i(uint64(rs[in.a].i) > uint64(rs[in.b].i))
		case opIUge:
			rs[in.dst].i = b2i(uint64(rs[in.a].i) >= uint64(rs[in.b].i))
		case opFEq:
			rs[in.dst].i = b2i(rs[in.a].f == rs[in.b].f)
		case opFNe:
			rs[in.dst].i = b2i(rs[in.a].f != rs[in.b].f)
		case opFLt:
			rs[in.dst].i = b2i(rs[in.a].f < rs[in.b].f)
		case opFLe:
			rs[in.dst].i = b2i(rs[in.a].f <= rs[in.b].f)
		case opFGt:
			rs[in.dst].i = b2i(rs[in.a].f > rs[in.b].f)
		case opFGe:
			rs[in.dst].i = b2i(rs[in.a].f >= rs[in.b].f)

		// Memory.
		case opAlloca:
			addr, err := m.alloc(int(in.c))
			if err != nil {
				return val{}, err
			}
			rs[in.dst].i = addr
		case opAllocaP:
			addr, err := m.alloc(int(fc.ipool[in.c]))
			if err != nil {
				return val{}, err
			}
			rs[in.dst].i = addr
		case opLoad1:
			addr := rs[in.a].i
			m.checkAddr(addr, int(in.c))
			rs[in.dst].i = int64(int8(m.mem[addr])) & 1
		case opLoad8:
			addr := rs[in.a].i
			m.checkAddr(addr, int(in.c))
			rs[in.dst].i = int64(int8(m.mem[addr]))
		case opLoad32:
			addr := rs[in.a].i
			m.checkAddr(addr, int(in.c))
			rs[in.dst].i = int64(int32(binary.LittleEndian.Uint32(m.mem[addr:])))
		case opLoad64:
			addr := rs[in.a].i
			m.checkAddr(addr, int(in.c))
			rs[in.dst].i = int64(binary.LittleEndian.Uint64(m.mem[addr:]))
		case opLoadF:
			addr := rs[in.a].i
			m.checkAddr(addr, int(in.c))
			rs[in.dst].f = math.Float64frombits(binary.LittleEndian.Uint64(m.mem[addr:]))
		case opStore8:
			addr := rs[in.b].i
			m.checkAddr(addr, int(in.c))
			m.mem[addr] = byte(rs[in.a].i)
		case opStore32:
			addr := rs[in.b].i
			m.checkAddr(addr, int(in.c))
			binary.LittleEndian.PutUint32(m.mem[addr:], uint32(rs[in.a].i))
		case opStore64:
			addr := rs[in.b].i
			m.checkAddr(addr, int(in.c))
			binary.LittleEndian.PutUint64(m.mem[addr:], uint64(rs[in.a].i))
		case opStoreF:
			addr := rs[in.b].i
			m.checkAddr(addr, int(in.c))
			binary.LittleEndian.PutUint64(m.mem[addr:], math.Float64bits(rs[in.a].f))

		// Address arithmetic.
		case opScaleAdd:
			rs[in.dst].i = rs[in.a].i + rs[in.b].i*int64(in.c)
		case opScaleAddP:
			rs[in.dst].i = rs[in.a].i + rs[in.b].i*fc.ipool[in.c]
		case opAddImm:
			rs[in.dst].i = rs[in.a].i + int64(in.c)
		case opAddImmP:
			rs[in.dst].i = rs[in.a].i + fc.ipool[in.c]
		case opGEPSlow:
			rs[in.dst].i = m.gepSlow(fc, rs, in)

		// Conversions.
		case opTrunc:
			rs[in.dst].i = rs[in.a].i << in.sh >> in.sh
		case opZExt:
			rs[in.dst].i = rs[in.a].i & (int64(1)<<in.sh - 1)
		case opFPToI:
			r := ir.FPToInt64(rs[in.a].f)
			rs[in.dst].i = r << in.sh >> in.sh
		case opSIToFP:
			rs[in.dst].f = float64(rs[in.a].i)
		case opUIToFP:
			rs[in.dst].f = float64(uint64(rs[in.a].i))

		case opSelect:
			k := in.b
			if rs[in.a].i == 0 {
				k++
			}
			rs[in.dst] = rs[fc.extra[k]]

		case opCall:
			callee := m.prog.funcs[in.a]
			nbase := base + fc.frameSize
			m.ensureRegs(nbase + callee.frameSize)
			args := fc.extra[in.b : in.b+in.c]
			for k, s := range args {
				m.regs[nbase+k] = m.regs[base+int(s)]
			}
			ret, err := m.exec(callee, nbase)
			if err != nil {
				return val{}, err
			}
			// ensureRegs (directly or in nested calls) may have moved the
			// backing array; re-derive our frame before touching it.
			rs = m.regs[base : base+fc.frameSize]
			if in.dst >= 0 {
				rs[in.dst] = ret
			}

		case opCallB:
			args := fc.extra[in.b : in.b+in.c]
			ret, err := m.builtin(in.a, rs, args)
			if err != nil {
				return val{}, err
			}
			if in.dst >= 0 {
				rs[in.dst] = ret
			}

		case opNop:
			// unused; keeps the zero inst harmless

		default:
			panic(errTrap{"vm: bad opcode " + strconv.Itoa(int(in.op))})
		}
	}
}

// gepSlow re-runs the interpreter's GEP walk for the shapes the compiler
// could not pre-resolve (dynamic struct indices, degenerate types),
// including its exact traps.
func (m *machine) gepSlow(fc *funcCode, rs []val, in inst) int64 {
	g := fc.geps[in.c]
	slots := fc.extra[in.a : in.a+g.n]
	elem := g.elem
	addr := rs[slots[0]].i + rs[slots[1]].i*int64(elem.Size())
	for k := 0; k < int(g.n)-2; k++ {
		switch {
		case elem.IsArray():
			elem = elem.Elem
			addr += rs[slots[2+k]].i * int64(elem.Size())
		case elem.IsStruct():
			fi := rs[slots[2+k]].i
			if fi < 0 || int(fi) >= len(elem.Fields) {
				panic(errTrap{"gep struct field index out of range"})
			}
			addr += int64(elem.FieldOffset(int(fi)))
			elem = elem.Fields[fi]
		default:
			panic(errTrap{"gep into non-aggregate"})
		}
	}
	return addr
}

func (m *machine) builtin(which int32, rs []val, args []int32) (val, error) {
	switch which {
	case bPrintI64:
		fmt.Fprintf(&m.out, "%d\n", rs[args[0]].i)
	case bPrintF64:
		fmt.Fprintf(&m.out, "%.6f\n", rs[args[0]].f)
	case bPrintI8:
		m.out.WriteByte(byte(rs[args[0]].i))
	case bPrintStr:
		addr := rs[args[0]].i
		for {
			m.checkAddr(addr, 1)
			ch := m.mem[addr]
			if ch == 0 {
				break
			}
			m.out.WriteByte(ch)
			addr++
		}
	case bInputI64:
		if m.inI < len(m.opts.Input) {
			v := m.opts.Input[m.inI]
			m.inI++
			return val{i: v}, nil
		}
		return val{}, nil
	case bInputF64:
		if m.inF < len(m.opts.FloatInput) {
			v := m.opts.FloatInput[m.inF]
			m.inF++
			return val{f: v}, nil
		}
		return val{}, nil
	case bSqrt:
		return val{f: math.Sqrt(rs[args[0]].f)}, nil
	case bFabs:
		return val{f: math.Abs(rs[args[0]].f)}, nil
	case bSin:
		return val{f: math.Sin(rs[args[0]].f)}, nil
	case bCos:
		return val{f: math.Cos(rs[args[0]].f)}, nil
	case bExp:
		return val{f: math.Exp(rs[args[0]].f)}, nil
	case bLog:
		return val{f: math.Log(rs[args[0]].f)}, nil
	case bFloor:
		return val{f: math.Floor(rs[args[0]].f)}, nil
	case bPow:
		return val{f: math.Pow(rs[args[0]].f, rs[args[1]].f)}, nil
	case bAbsI64:
		v := rs[args[0]].i
		if v < 0 {
			v = -v
		}
		return val{i: v}, nil
	}
	return val{}, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
