package passes

import "repro/internal/ir"

// unrollBudget bounds the total instructions materialized per loop.
const unrollBudget = 600

// maxTripSim bounds the trip-count simulation.
const maxTripSim = 4096

// UnrollLoops fully unrolls small counted loops of the canonical two-block
// shape produced by mem2reg + SimplifyCFG:
//
//	P:  ... br H                      (unique predecessor outside the loop)
//	H:  %i = phi [init, P], [%next, B] ; ... ; %c = icmp pred %i, K ; condbr %c, ...
//	B:  ...body... ; %next = add %i, step ; br H
//
// When the trip count is a small compile-time constant, the loop becomes a
// straight line: n copies of (header tail + body), one final header tail
// (the failing check — headers run trip+1 times), and a jump to the exit.
// Constant-input loops then collapse entirely under SCCP; variable-input
// loops still shed their per-iteration compare/branch/phi overhead — a
// large share of the dynamic-instruction savings the paper attributes to
// clang -O3.
func UnrollLoops(f *ir.Function) bool {
	changed := false
	for {
		f.RemoveUnreachable()
		dt := ir.NewDomTree(f)
		loops := dt.NaturalLoops()
		done := true
		for _, l := range loops {
			if tryUnroll(f, l, dt) {
				changed = true
				done = false
				break // CFG changed; recompute analyses
			}
		}
		if done {
			return changed
		}
	}
}

// loopShape is the decoded canonical loop.
type loopShape struct {
	pre      *ir.Block // unique outside predecessor
	header   *ir.Block
	body     *ir.Block
	exit     *ir.Block
	iv       *ir.Instr // induction phi
	ivNext   *ir.Instr // add/sub in body
	step     int64
	init     int64
	bound    int64
	pred     ir.CmpPred
	bodyTrue bool // condbr's true edge goes to the body
	trip     int
}

func tryUnroll(f *ir.Function, l *ir.Loop, dt *ir.DomTree) bool {
	sh, ok := matchLoop(f, l)
	if !ok {
		return false
	}
	size := len(sh.header.Instrs) + len(sh.body.Instrs)
	if sh.trip*size > unrollBudget {
		return false
	}
	// Bail out when a body-defined value is used outside the loop: such a
	// use could only be reached through the header phis anyway, and
	// rejecting keeps the rewrite logic simple and obviously safe.
	inLoop := map[*ir.Block]bool{sh.header: true, sh.body: true}
	bodyDefs := map[*ir.Instr]bool{}
	for _, in := range sh.body.Instrs {
		bodyDefs[in] = true
	}
	escaped := false
	f.ForEachInstr(func(u *ir.Instr) {
		if inLoop[u.Parent] {
			return
		}
		for _, a := range u.Args {
			if d, ok := a.(*ir.Instr); ok && bodyDefs[d] {
				escaped = true
			}
		}
	})
	if escaped {
		return false
	}

	phis := sh.header.Phis()
	// Current value of each header phi, starting at the preheader inputs.
	cur := make(map[*ir.Instr]ir.Value, len(phis))
	for _, phi := range phis {
		cur[phi] = phi.PhiIncoming(sh.pre)
		if cur[phi] == nil {
			return false
		}
	}

	u := f.InsertBlockAfter(sh.pre, sh.header.Label()+".unroll")
	headerTail := sh.header.Instrs[sh.header.FirstNonPhi():]
	headerTail = headerTail[:len(headerTail)-1] // drop the condbr
	bodyInstrs := sh.body.Instrs[:len(sh.body.Instrs)-1]

	// mapVal resolves an operand through the per-iteration clone map and
	// the running phi values.
	cloneSeq := func(src []*ir.Instr, m map[*ir.Instr]ir.Value) {
		for _, in := range src {
			ni := &ir.Instr{
				Op: in.Op, Ty: in.Ty, Pred: in.Pred, Callee: in.Callee,
				Builtin: in.Builtin, AllocaTy: in.AllocaTy,
			}
			for _, a := range in.Args {
				if d, ok := a.(*ir.Instr); ok {
					if v, ok := m[d]; ok {
						ni.Args = append(ni.Args, v)
						continue
					}
				}
				ni.Args = append(ni.Args, a)
			}
			u.Append(ni)
			m[in] = ni
		}
	}

	var lastHeaderMap map[*ir.Instr]ir.Value
	for iter := 0; iter < sh.trip; iter++ {
		m := make(map[*ir.Instr]ir.Value, size)
		for phi, v := range cur {
			m[phi] = v
		}
		cloneSeq(headerTail, m)
		cloneSeq(bodyInstrs, m)
		// Advance the phis using the latch-edge operands.
		next := make(map[*ir.Instr]ir.Value, len(phis))
		for _, phi := range phis {
			inc := phi.PhiIncoming(sh.body)
			if d, ok := inc.(*ir.Instr); ok {
				if v, ok := m[d]; ok {
					next[phi] = v
					continue
				}
			}
			next[phi] = inc
		}
		cur = next
	}
	// The final header execution (check fails, loop exits).
	lastHeaderMap = make(map[*ir.Instr]ir.Value, len(headerTail)+len(phis))
	for phi, v := range cur {
		lastHeaderMap[phi] = v
	}
	cloneSeq(headerTail, lastHeaderMap)
	ir.NewBuilder(u).Br(sh.exit)

	// Rewire: the preheader enters the unrolled block.
	sh.pre.Term().RedirectTarget(sh.header, u)
	// The exit's phis now come from u, with values mapped through the
	// final header clone.
	for _, phi := range sh.exit.Phis() {
		for i, blk := range phi.Blocks {
			if blk != sh.header {
				continue
			}
			phi.Blocks[i] = u
			if d, ok := phi.Args[i].(*ir.Instr); ok {
				if v, ok := lastHeaderMap[d]; ok {
					phi.Args[i] = v
				}
			}
		}
	}
	// Outside uses of header-defined values: phis take their final value,
	// header-tail instructions their final clone.
	f.ForEachInstr(func(usr *ir.Instr) {
		if usr.Parent == sh.header || usr.Parent == sh.body {
			return
		}
		for i, a := range usr.Args {
			d, ok := a.(*ir.Instr)
			if !ok || d.Parent != sh.header {
				continue
			}
			if v, ok := lastHeaderMap[d]; ok {
				usr.Args[i] = v
			}
		}
	})
	// Drop the old loop.
	f.RemoveUnreachable()
	return true
}

// matchLoop decodes the canonical counted-loop shape, or fails.
func matchLoop(f *ir.Function, l *ir.Loop) (loopShape, bool) {
	var sh loopShape
	if len(l.Blocks) != 2 || len(l.Latches) != 1 {
		return sh, false
	}
	sh.header = l.Header
	sh.body = l.Latches[0]
	if sh.body == sh.header || !l.Blocks[sh.body] {
		return sh, false
	}
	bt := sh.body.Term()
	if bt == nil || bt.Op != ir.OpBr || bt.Blocks[0] != sh.header {
		return sh, false
	}
	ht := sh.header.Term()
	if ht == nil || ht.Op != ir.OpCondBr {
		return sh, false
	}
	switch {
	case ht.Blocks[0] == sh.body && !l.Blocks[ht.Blocks[1]]:
		sh.bodyTrue, sh.exit = true, ht.Blocks[1]
	case ht.Blocks[1] == sh.body && !l.Blocks[ht.Blocks[0]]:
		sh.bodyTrue, sh.exit = false, ht.Blocks[0]
	default:
		return sh, false
	}
	// Unique outside predecessor of the header.
	preds := f.Preds()
	var outside []*ir.Block
	for _, p := range preds[sh.header] {
		if !l.Blocks[p] {
			outside = append(outside, p)
		}
	}
	if len(outside) != 1 {
		return sh, false
	}
	sh.pre = outside[0]
	// The exit must not have the body as another predecessor, and the
	// header must be its only in-loop predecessor (true by construction
	// here since the body only branches to the header).

	// Decode the exit condition: icmp(iv, const) in the header.
	cmp, ok := ht.Args[0].(*ir.Instr)
	if !ok || cmp.Op != ir.OpICmp || cmp.Parent != sh.header {
		return sh, false
	}
	ivPhi, cok := cmp.Args[0].(*ir.Instr)
	boundC, bok := cmp.Args[1].(*ir.Const)
	pred := cmp.Pred
	if !cok || !bok {
		// Try the swapped orientation: const on the left.
		boundC, bok = cmp.Args[0].(*ir.Const)
		ivPhi, cok = cmp.Args[1].(*ir.Instr)
		if !cok || !bok {
			return sh, false
		}
		pred = pred.Swapped()
	}
	if ivPhi.Op != ir.OpPhi || ivPhi.Parent != sh.header || boundC.Ty.IsFloat() {
		return sh, false
	}
	sh.iv, sh.bound, sh.pred = ivPhi, boundC.I, pred

	initV := ivPhi.PhiIncoming(sh.pre)
	initC, ok := initV.(*ir.Const)
	if !ok || initC.Ty.IsFloat() {
		return sh, false
	}
	sh.init = initC.I
	nextV := ivPhi.PhiIncoming(sh.body)
	next, ok := nextV.(*ir.Instr)
	if !ok || next.Parent != sh.body {
		return sh, false
	}
	stepC, ok := stepOf(next, ivPhi)
	if !ok {
		return sh, false
	}
	sh.ivNext, sh.step = next, stepC

	// Simulate the trip count, wrapping the induction variable at its width.
	ty := ivPhi.Ty
	k, bound, step := ir.Scalar{I: sh.init}, ir.Scalar{I: sh.bound}, ir.Scalar{I: sh.step}
	trip := 0
	for {
		taken, _ := ir.Eval(ir.OpICmp, sh.pred, ty, ir.I1, k, bound)
		if (taken.I != 0) != sh.bodyTrue {
			break
		}
		trip++
		if trip > maxTripSim {
			return sh, false
		}
		k, _ = ir.Eval(ir.OpAdd, 0, ty, ty, k, step)
	}
	if trip == 0 {
		// Folding a never-entered loop is SimplifyCFG's job.
		return sh, false
	}
	sh.trip = trip
	return sh, true
}

// stepOf decodes next = iv + c or next = iv - c.
func stepOf(next *ir.Instr, iv *ir.Instr) (int64, bool) {
	if next.Op != ir.OpAdd && next.Op != ir.OpSub {
		return 0, false
	}
	if next.Args[0] != ir.Value(iv) {
		if next.Op == ir.OpAdd && next.Args[1] == ir.Value(iv) {
			if c, ok := next.Args[0].(*ir.Const); ok && !c.Ty.IsFloat() {
				return c.I, true
			}
		}
		return 0, false
	}
	c, ok := next.Args[1].(*ir.Const)
	if !ok || c.Ty.IsFloat() {
		return 0, false
	}
	if next.Op == ir.OpSub {
		return -c.I, true
	}
	return c.I, true
}
