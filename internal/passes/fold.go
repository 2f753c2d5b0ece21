package passes

import "repro/internal/ir"

// foldInstr attempts to evaluate an instruction whose operands are all
// constants, returning the folded constant or nil. Arithmetic, compares and
// casts evaluate through ir.Fold, which leaves division by zero and other
// trapping cases unfolded so the instruction stays put.
func foldInstr(in *ir.Instr) *ir.Const {
	switch in.Op {
	case ir.OpSelect:
		if c, ok := constOf(in.Args[0]); ok {
			pick := in.Args[2]
			if c.I != 0 {
				pick = in.Args[1]
			}
			if cv, ok := constOf(pick); ok {
				return cv
			}
		}
		return nil
	case ir.OpFreeze:
		c, _ := constOf(in.Args[0])
		return c
	}
	if len(in.Args) == 0 || len(in.Args) > 2 {
		return nil
	}
	a, ok := constOf(in.Args[0])
	if !ok {
		return nil
	}
	var b *ir.Const
	if len(in.Args) == 2 {
		if b, ok = constOf(in.Args[1]); !ok {
			return nil
		}
	}
	return ir.Fold(in.Op, in.Pred, in.Ty, a, b)
}

func constOf(v ir.Value) (*ir.Const, bool) {
	c, ok := v.(*ir.Const)
	return c, ok
}
