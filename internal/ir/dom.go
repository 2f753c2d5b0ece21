package ir

// DomTree is the dominator tree of a function, computed with the
// Cooper-Harvey-Kennedy iterative algorithm. The fixpoint runs on RPO
// indices: Order gives each reachable block its index in RPO, and an
// unexported slice holds each index's immediate dominator, which Dominates
// walks. IDom and Children are that same tree keyed by block, filled once
// the fixpoint settles. Unreachable blocks are absent from all maps.
type DomTree struct {
	Fn *Function
	// IDom maps each block (except the entry) to its immediate dominator.
	IDom map[*Block]*Block
	// Children maps each block to the blocks it immediately dominates, in
	// reverse postorder.
	Children map[*Block][]*Block
	// Order is a reverse-postorder numbering of the reachable blocks.
	Order map[*Block]int
	// RPO is the reachable blocks in reverse postorder.
	RPO []*Block
	// idom[i] is the RPO index of RPO[i]'s immediate dominator; idom[0] = 0.
	idom []int
	// preds caches the predecessor map used during construction.
	preds map[*Block][]*Block
}

// NewDomTree computes the dominator tree of f.
func NewDomTree(f *Function) *DomTree {
	t := newDomTree(f, f.Preds())
	t.IDom = make(map[*Block]*Block, len(t.RPO))
	t.Children = make(map[*Block][]*Block)
	for i, b := range t.RPO {
		t.IDom[b] = nil
		if i > 0 {
			d := t.RPO[t.idom[i]]
			t.IDom[b] = d
			t.Children[d] = append(t.Children[d], b)
		}
	}
	return t
}

// newDomTree computes RPO, Order and the index-based tree of f from its
// predecessor map. It leaves IDom and Children nil: Verify asks nothing of
// the tree but Dominates.
func newDomTree(f *Function, preds map[*Block][]*Block) *DomTree {
	t := &DomTree{Fn: f, Order: make(map[*Block]int, len(f.Blocks)), preds: preds}
	if len(f.Blocks) == 0 {
		return t
	}
	// Reverse postorder via iterative DFS, filling rpo from the back; Order
	// marks the blocks seen so far and gets their RPO indices below.
	rpo, k := make([]*Block, len(f.Blocks)), len(f.Blocks)
	type frame struct {
		b *Block
		i int
	}
	stack := []frame{{f.Entry(), 0}}
	t.Order[f.Entry()] = 0
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succs := fr.b.Succs()
		if fr.i < len(succs) {
			s := succs[fr.i]
			fr.i++
			if _, seen := t.Order[s]; !seen {
				t.Order[s] = 0
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		k--
		rpo[k] = fr.b
		stack = stack[:len(stack)-1]
	}
	t.RPO = rpo[k:]
	n := len(t.RPO)
	for i, b := range t.RPO {
		t.Order[b] = i
	}

	idom := make([]int, n) // the entry is its own root: idom[0] = 0
	for i := 1; i < n; i++ {
		idom[i] = -1
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < n; i++ {
			d := -1
			for _, p := range preds[t.RPO[i]] {
				if pi, ok := t.Order[p]; ok && idom[pi] >= 0 {
					d = intersect(idom, pi, d)
				}
			}
			if idom[i] != d {
				idom[i] = d
				changed = true
			}
		}
	}
	t.idom = idom
	return t
}

// intersect returns the nearest common dominator of RPO indices a and b, or
// a when b is -1 (no dominator found yet).
func intersect(idom []int, a, b int) int {
	for b >= 0 && a != b {
		for a > b {
			a = idom[a]
		}
		for b > a {
			b = idom[b]
		}
	}
	return a
}

// Dominates reports whether block a dominates block b (reflexively).
func (t *DomTree) Dominates(a, b *Block) bool {
	ai, aok := t.Order[a]
	bi, bok := t.Order[b]
	if !aok || !bok {
		return a == b && b != nil
	}
	for bi > ai {
		bi = t.idom[bi]
	}
	return bi == ai
}

// Frontiers computes the dominance frontier of every reachable block.
func (t *DomTree) Frontiers() map[*Block][]*Block {
	df := make(map[*Block][]*Block, len(t.RPO))
	for _, b := range t.RPO {
		preds := t.preds[b]
		if len(preds) < 2 {
			continue
		}
		for _, p := range preds {
			if _, ok := t.Order[p]; !ok {
				continue // unreachable predecessor
			}
			runner := p
			for runner != nil && runner != t.IDom[b] {
				if !containsBlock(df[runner], b) {
					df[runner] = append(df[runner], b)
				}
				runner = t.IDom[runner]
			}
		}
	}
	return df
}

func containsBlock(s []*Block, b *Block) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}

// Loop is a natural loop discovered from a back edge.
type Loop struct {
	Header *Block
	// Blocks is the loop body including the header.
	Blocks map[*Block]bool
	// Latches are the blocks with a back edge to the header.
	Latches []*Block
}

// NaturalLoops finds the natural loops of f using the dominator tree:
// every edge latch→header where header dominates latch defines a loop.
// Loops sharing a header are merged.
func (t *DomTree) NaturalLoops() []*Loop {
	byHeader := make(map[*Block]*Loop)
	var order []*Block
	for _, b := range t.RPO {
		for _, s := range b.Succs() {
			if t.Dominates(s, b) {
				l := byHeader[s]
				if l == nil {
					l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
					byHeader[s] = l
					order = append(order, s)
				}
				l.Latches = append(l.Latches, b)
				// Walk backwards from the latch collecting the body.
				stack := []*Block{b}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if l.Blocks[x] {
						continue
					}
					l.Blocks[x] = true
					for _, p := range t.preds[x] {
						if _, ok := t.Order[p]; ok {
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	loops := make([]*Loop, 0, len(order))
	for _, h := range order {
		loops = append(loops, byHeader[h])
	}
	return loops
}
