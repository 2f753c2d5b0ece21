package embed

import (
	"repro/internal/ir"
)

// This file holds the two embeddings that also have a native builder on the
// struct-of-arrays ir.Flat view: histogram and cfg_compact, the ones the
// game, serving and co-evolution workloads embed with. Each produces
// byte-identical output to its pointer sibling in embed.go (the
// flat_equiv_test suite pins this) while allocating only its output. Every
// other embedding reaches the flat view through Get, which thaws the view
// and runs the pointer builder.

// HistogramFlat is Histogram on the flat view: one pass over the dense
// opcode column.
func HistogramFlat(fl *ir.Flat) Vector {
	v := make(Vector, ir.NumOpcodes)
	for _, op := range fl.Ops {
		v[op]++
	}
	return v
}

// newGraph allocates a graph with n feature rows of width dim and exact
// edge capacity ne.
func newGraph(n, dim, ne int) *Graph {
	return &Graph{
		NodeFeats: featRows(n, dim),
		Edges:     make([][2]int, 0, ne),
		EdgeTypes: make([]EdgeType, 0, ne),
	}
}

// blockFeats fills one opcode-histogram row per basic block.
func blockFeats(g *Graph, fl *ir.Flat) {
	for bi := range fl.Blocks {
		b := &fl.Blocks[bi]
		row := g.NodeFeats[bi]
		for i := b.Ins0; i < b.Ins1; i++ {
			row[fl.Ops[i]]++
		}
	}
}

// CFGCompactFlat is CFGCompact on the flat view: node index == module-wide
// block index (the same order the pointer builder assigns).
func CFGCompactFlat(fl *ir.Flat) *Graph {
	ne := 0
	for bi := range fl.Blocks {
		ne += len(fl.BlockSuccs(int32(bi)))
	}
	g := newGraph(len(fl.Blocks), int(ir.NumOpcodes), ne)
	blockFeats(g, fl)
	for bi := range fl.Blocks {
		for _, s := range fl.BlockSuccs(int32(bi)) {
			g.addEdge(bi, int(s), ControlEdge)
		}
	}
	return g
}
