package ir

import (
	"errors"
	"fmt"
)

// Verify checks structural well-formedness of every function in the module
// and returns the first problem found, or nil.
func (m *Module) Verify() error {
	for _, f := range m.Functions {
		if err := f.Verify(); err != nil {
			return fmt.Errorf("function @%s: %w", f.Name, err)
		}
	}
	return nil
}

// Verify checks that the function is structurally well-formed:
//   - every block ends in exactly one terminator, with no terminator mid-block;
//   - phi nodes appear only at block heads and have one incoming block per
//     value; the set of incoming blocks equals the set of the block's
//     predecessors (how often each appears is not checked);
//   - operand counts and basic operand types are consistent with opcodes;
//   - every instruction-operand is defined in this function and (for
//     reachable code) its definition dominates the use.
func (f *Function) Verify() error {
	if f.IsDecl() {
		return nil
	}
	// idx is each instruction's index in its block; keys are f's instructions.
	idx := make(map[*Instr]int, f.NumInstrs())
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			idx[in] = i
		}
	}
	preds := f.Preds()
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %s is empty", b.Label())
		}
		for i, in := range b.Instrs {
			last := i == len(b.Instrs)-1
			if in.IsTerminator() != last {
				if last {
					return fmt.Errorf("block %s does not end in a terminator", b.Label())
				}
				return fmt.Errorf("block %s has terminator %s mid-block", b.Label(), in.Op)
			}
			if in.Parent != b {
				return fmt.Errorf("instruction %s in %s has wrong parent", in.Op, b.Label())
			}
			if err := checkOperands(in); err != nil {
				return fmt.Errorf("block %s: %s: %w", b.Label(), in, err)
			}
			if in.Op == OpPhi {
				if i > 0 && b.Instrs[i-1].Op != OpPhi {
					return fmt.Errorf("block %s: phi not at block head", b.Label())
				}
				if err := checkPhi(in, preds[b]); err != nil {
					return fmt.Errorf("block %s: %w", b.Label(), err)
				}
			}
			for _, a := range in.Args {
				if ai, ok := a.(*Instr); ok {
					if _, defined := idx[ai]; !defined {
						return fmt.Errorf("block %s: %s uses instruction from another function", b.Label(), in.Op)
					}
				}
				if p, ok := a.(*Param); ok {
					if p.Index >= len(f.Params) || f.Params[p.Index] != p {
						return fmt.Errorf("block %s: %s uses foreign parameter %%%s", b.Label(), in.Op, p.Name)
					}
				}
			}
		}
	}
	return f.verifyDominance(idx, preds)
}

func checkPhi(in *Instr, preds []*Block) error {
	if len(in.Args) != len(in.Blocks) {
		return errors.New("phi has mismatched values/blocks")
	}
	want := make(map[*Block]int)
	for _, p := range preds {
		want[p]++
	}
	have := make(map[*Block]int)
	for _, b := range in.Blocks {
		have[b]++
	}
	for p := range want {
		if have[p] == 0 {
			return fmt.Errorf("phi %s missing incoming edge from %s", in.Ref(), p.Label())
		}
	}
	for b := range have {
		if want[b] == 0 {
			return fmt.Errorf("phi %s has edge from non-predecessor %s", in.Ref(), b.Label())
		}
	}
	return nil
}

func checkOperands(in *Instr) error {
	nargs := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("want %d operands, have %d", n, len(in.Args))
		}
		return nil
	}
	switch {
	case in.Op == OpRet:
		if len(in.Args) > 1 {
			return errors.New("ret with multiple values")
		}
		return nil
	case in.Op == OpBr:
		if len(in.Blocks) != 1 {
			return errors.New("br needs one target")
		}
		return nil
	case in.Op == OpCondBr:
		if err := nargs(1); err != nil {
			return err
		}
		if !in.Args[0].Type().Equal(I1) {
			return fmt.Errorf("condbr condition is %s, want i1", in.Args[0].Type())
		}
		if len(in.Blocks) != 2 {
			return errors.New("condbr needs two targets")
		}
		return nil
	case in.Op == OpSwitch:
		if err := nargs(1); err != nil {
			return err
		}
		if len(in.Blocks) != len(in.SwitchVals)+1 {
			return errors.New("switch case/target mismatch")
		}
		return nil
	case in.Op.IsIntBinary():
		if err := nargs(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsInt() || !in.Args[1].Type().IsInt() {
			return fmt.Errorf("integer op on %s, %s", in.Args[0].Type(), in.Args[1].Type())
		}
		return nil
	case in.Op.IsFloatBinary():
		if err := nargs(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFloat() || !in.Args[1].Type().IsFloat() {
			return fmt.Errorf("float op on %s, %s", in.Args[0].Type(), in.Args[1].Type())
		}
		return nil
	case in.Op == OpFNeg:
		return nargs(1)
	case in.Op == OpAlloca:
		if in.AllocaTy == nil {
			return errors.New("alloca without element type")
		}
		return nil
	case in.Op == OpLoad:
		if err := nargs(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("load from %s", in.Args[0].Type())
		}
		return nil
	case in.Op == OpStore:
		if err := nargs(2); err != nil {
			return err
		}
		if !in.Args[1].Type().IsPtr() {
			return fmt.Errorf("store to %s", in.Args[1].Type())
		}
		return nil
	case in.Op == OpGEP:
		if len(in.Args) < 2 {
			return errors.New("gep needs base and index")
		}
		if !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("gep base is %s", in.Args[0].Type())
		}
		return nil
	case in.Op == OpICmp, in.Op == OpFCmp:
		return nargs(2)
	case in.Op == OpSelect:
		return nargs(3)
	case in.Op == OpCall:
		if in.Callee == nil && in.Builtin == "" {
			return errors.New("call without target")
		}
		if in.Callee != nil && len(in.Args) != len(in.Callee.Sig.Params) {
			return fmt.Errorf("call @%s with %d args, want %d",
				in.Callee.Name, len(in.Args), len(in.Callee.Sig.Params))
		}
		return nil
	case in.Op.IsCast(), in.Op == OpFreeze:
		return nargs(1)
	}
	return nil
}

// verifyDominance checks that in reachable code every instruction operand's
// definition dominates its use (phi uses are checked at the incoming edge).
// idx is each instruction's index in its block. Verify has checked every
// Parent, so an instruction occurs in its Parent block and nowhere else.
func (f *Function) verifyDominance(idx map[*Instr]int, preds map[*Block][]*Block) error {
	dt := newDomTree(f, preds)
	for _, b := range dt.RPO {
		for i, in := range b.Instrs {
			for ai, a := range in.Args {
				d, ok := a.(*Instr)
				if !ok {
					continue
				}
				db := d.Parent
				if _, reachable := dt.Order[db]; !reachable {
					return fmt.Errorf("%s in %s uses value defined in unreachable block", in.Op, b.Label())
				}
				if in.Op == OpPhi {
					edge := in.Blocks[ai]
					if _, reachable := dt.Order[edge]; !reachable {
						continue
					}
					if !dt.Dominates(db, edge) {
						return fmt.Errorf("phi %s in %s: incoming %s does not dominate edge %s",
							in.Ref(), b.Label(), d.Ref(), edge.Label())
					}
					continue
				}
				if db == b {
					if idx[d] >= i {
						return fmt.Errorf("%s in %s uses %s before definition", in.Op, b.Label(), d.Ref())
					}
				} else if !dt.Dominates(db, b) {
					return fmt.Errorf("%s in %s: operand %s defined in %s does not dominate use",
						in.Op, b.Label(), d.Ref(), db.Label())
				}
			}
		}
	}
	return nil
}
