// Package embed implements the nine program embeddings of the paper's
// classification arena (Figure 3): three vector embeddings — histogram,
// milepost and ir2vec — and six graph embeddings — cfg, cfg_compact, cdfg,
// cdfg_compact, cdfg_plus and programl. Vector embeddings feed all six
// stochastic models; graph embeddings feed the DGCNN.
package embed

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/ir"
)

// Vector is a fixed-length numeric program representation.
type Vector []float64

// Graph is an attributed directed graph program representation: node
// feature vectors (uniform dimension), typed edges.
type Graph struct {
	NodeFeats [][]float64
	Edges     [][2]int
	EdgeTypes []EdgeType
}

// EdgeType labels graph edges.
type EdgeType int

// Edge categories, following ProGraML's terminology.
const (
	ControlEdge EdgeType = iota
	DataEdge
	CallEdge
	MemoryEdge
)

// NumNodes returns the number of nodes in g.
func (g *Graph) NumNodes() int { return len(g.NodeFeats) }

// FeatDim returns the node feature dimensionality (0 for an empty graph).
func (g *Graph) FeatDim() int {
	if len(g.NodeFeats) == 0 {
		return 0
	}
	return len(g.NodeFeats[0])
}

// Kind discriminates vector from graph embeddings.
type Kind int

// Embedding output kinds.
const (
	VectorKind Kind = iota
	GraphKind
)

// Embedding is a named embedding function with two entry points producing
// identical output: one taking the pointer IR and one taking the
// struct-of-arrays ir.Flat view. Callers holding a Flat (the progcache
// shared path, or any module flattened after its last mutation) should call
// VecFlat/GraphFlat. histogram and cfg_compact, the embeddings the
// workloads run, have native flat builders that allocate only their output;
// every other embedding thaws the view and runs its pointer builder.
type Embedding struct {
	Name string
	Kind Kind
	// Vec computes the vector form (VectorKind only).
	Vec func(*ir.Module) Vector
	// VecFlat computes the same vector from the flat view.
	VecFlat func(*ir.Flat) Vector
	// Graph computes the graph form (GraphKind only).
	Graph func(*ir.Module) *Graph
	// GraphFlat computes the same graph from the flat view.
	GraphFlat func(*ir.Flat) *Graph
}

// Names lists all embeddings in the paper's order (Figure 3).
func Names() []string {
	return []string{
		"cfg", "cfg_compact", "cdfg", "cdfg_compact", "cdfg_plus",
		"programl", "ir2vec", "milepost", "histogram",
	}
}

// VectorNames lists the vector embeddings (usable with all models).
func VectorNames() []string { return []string{"ir2vec", "milepost", "histogram"} }

// Get returns the embedding registered under name.
func Get(name string) (*Embedding, error) {
	switch name {
	case "histogram":
		return &Embedding{Name: name, Kind: VectorKind, Vec: Histogram, VecFlat: HistogramFlat}, nil
	case "milepost":
		return vecViaThaw(name, Milepost), nil
	case "ir2vec":
		return vecViaThaw(name, IR2Vec), nil
	case "cfg":
		return graphViaThaw(name, CFG), nil
	case "cfg_compact":
		return &Embedding{Name: name, Kind: GraphKind, Graph: CFGCompact, GraphFlat: CFGCompactFlat}, nil
	case "cdfg":
		return graphViaThaw(name, CDFG), nil
	case "cdfg_compact":
		return graphViaThaw(name, CDFGCompact), nil
	case "cdfg_plus":
		return graphViaThaw(name, CDFGPlus), nil
	case "programl":
		return graphViaThaw(name, ProGraML), nil
	}
	return nil, fmt.Errorf("embed: unknown embedding %q", name)
}

// vecViaThaw registers a vector embedding without a native flat builder:
// VecFlat thaws the view and runs the pointer builder.
func vecViaThaw(name string, vec func(*ir.Module) Vector) *Embedding {
	return &Embedding{Name: name, Kind: VectorKind, Vec: vec,
		VecFlat: func(fl *ir.Flat) Vector { return vec(ir.Thaw(fl)) }}
}

// graphViaThaw is vecViaThaw for graph embeddings.
func graphViaThaw(name string, graph func(*ir.Module) *Graph) *Embedding {
	return &Embedding{Name: name, Kind: GraphKind, Graph: graph,
		GraphFlat: func(fl *ir.Flat) *Graph { return graph(ir.Thaw(fl)) }}
}

// Histogram returns the 63-dimensional opcode histogram — "a vector of 63
// positions counting instruction opcodes". Despite its simplicity the paper
// finds it competitive with every learned representation.
func Histogram(m *ir.Module) Vector {
	v := make(Vector, ir.NumOpcodes)
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) { v[in.Op]++ })
	}
	return v
}

// blockHistogramInto accumulates b's opcode histogram into v.
func blockHistogramInto(v []float64, b *ir.Block) {
	for _, in := range b.Instrs {
		v[in.Op]++
	}
}

// featRows carves n zeroed feature rows of width dim out of one backing
// array: a single allocation instead of one per node, which dominates the
// graph builders' allocation profile on instruction-level embeddings.
func featRows(n, dim int) [][]float64 {
	backing := make([]float64, n*dim)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

// moduleInstrs enumerates instructions of all defined functions in a
// deterministic order, assigning each a node index. Both containers are
// pre-sized by a counting pass.
func moduleInstrs(m *ir.Module) ([]*ir.Instr, map[*ir.Instr]int) {
	n := 0
	for _, f := range m.Functions {
		f.ForEachInstr(func(*ir.Instr) { n++ })
	}
	instrs := make([]*ir.Instr, 0, n)
	idx := make(map[*ir.Instr]int, n)
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) {
			idx[in] = len(instrs)
			instrs = append(instrs, in)
		})
	}
	return instrs, idx
}

// addControlEdges appends instruction-level control-flow edges: sequential
// flow inside blocks plus terminator-to-target-head edges.
func addControlEdges(g *Graph, m *ir.Module, idx map[*ir.Instr]int) {
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			for i := 0; i+1 < len(b.Instrs); i++ {
				g.addEdge(idx[b.Instrs[i]], idx[b.Instrs[i+1]], ControlEdge)
			}
			term := b.Term()
			if term == nil {
				continue
			}
			for _, s := range term.Succs() {
				if len(s.Instrs) > 0 {
					g.addEdge(idx[term], idx[s.Instrs[0]], ControlEdge)
				}
			}
		}
	}
}

func (g *Graph) addEdge(from, to int, t EdgeType) {
	g.Edges = append(g.Edges, [2]int{from, to})
	g.EdgeTypes = append(g.EdgeTypes, t)
}

// CFG is Brauckmann et al.'s control-flow graph: one node per instruction
// with a one-hot opcode feature, control-flow edges only.
func CFG(m *ir.Module) *Graph {
	instrs, idx := moduleInstrs(m)
	g := &Graph{NodeFeats: featRows(len(instrs), int(ir.NumOpcodes))}
	for i, in := range instrs {
		g.NodeFeats[i][in.Op] = 1
	}
	addControlEdges(g, m, idx)
	return g
}

// CFGCompact groups instructions into basic blocks: one node per block with
// an opcode-histogram feature, CFG edges between blocks.
func CFGCompact(m *ir.Module) *Graph {
	nb := 0
	for _, f := range m.Functions {
		nb += len(f.Blocks)
	}
	g := &Graph{NodeFeats: featRows(nb, int(ir.NumOpcodes))[:0]}
	bidx := make(map[*ir.Block]int, nb)
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			bidx[b] = len(g.NodeFeats)
			g.NodeFeats = g.NodeFeats[:len(g.NodeFeats)+1]
			blockHistogramInto(g.NodeFeats[len(g.NodeFeats)-1], b)
		}
	}
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			for _, s := range b.Succs() {
				g.addEdge(bidx[b], bidx[s], ControlEdge)
			}
		}
	}
	return g
}

// addDataEdges appends def-use edges between instruction nodes.
func addDataEdges(g *Graph, m *ir.Module, idx map[*ir.Instr]int) {
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) {
			for _, a := range in.Args {
				if d, ok := a.(*ir.Instr); ok {
					g.addEdge(idx[d], idx[in], DataEdge)
				}
			}
		})
	}
}

// CDFG adds data-flow (def-use) edges to CFG.
func CDFG(m *ir.Module) *Graph {
	instrs, idx := moduleInstrs(m)
	g := &Graph{NodeFeats: featRows(len(instrs), int(ir.NumOpcodes))}
	for i, in := range instrs {
		g.NodeFeats[i][in.Op] = 1
	}
	addControlEdges(g, m, idx)
	addDataEdges(g, m, idx)
	return g
}

// CDFGCompact is the block-level variant of CDFG: block nodes with
// histogram features, control edges, plus data edges between blocks that
// communicate through SSA values.
func CDFGCompact(m *ir.Module) *Graph {
	nb := 0
	for _, f := range m.Functions {
		nb += len(f.Blocks)
	}
	g := &Graph{NodeFeats: featRows(nb, int(ir.NumOpcodes))[:0]}
	bidx := make(map[*ir.Block]int, nb)
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			bidx[b] = len(g.NodeFeats)
			g.NodeFeats = g.NodeFeats[:len(g.NodeFeats)+1]
			blockHistogramInto(g.NodeFeats[len(g.NodeFeats)-1], b)
		}
	}
	seen := make(map[[2]int]bool)
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			for _, s := range b.Succs() {
				g.addEdge(bidx[b], bidx[s], ControlEdge)
			}
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					if d, ok := a.(*ir.Instr); ok && d.Parent != b {
						key := [2]int{bidx[d.Parent], bidx[b]}
						if !seen[key] {
							seen[key] = true
							g.addEdge(key[0], key[1], DataEdge)
						}
					}
				}
			}
		}
	}
	return g
}

// CDFGPlus extends CDFG with call edges (call site to callee entry and
// callee returns back to the call site) and memory edges linking allocas to
// the loads and stores that touch them.
func CDFGPlus(m *ir.Module) *Graph {
	instrs, idx := moduleInstrs(m)
	g := &Graph{NodeFeats: featRows(len(instrs), int(ir.NumOpcodes))}
	for i, in := range instrs {
		g.NodeFeats[i][in.Op] = 1
	}
	addControlEdges(g, m, idx)
	addDataEdges(g, m, idx)
	for _, in := range instrs {
		if in.Op == ir.OpCall && in.Callee != nil && !in.Callee.IsDecl() {
			entry := in.Callee.Entry()
			if len(entry.Instrs) > 0 {
				g.addEdge(idx[in], idx[entry.Instrs[0]], CallEdge)
			}
			in.Callee.ForEachInstr(func(r *ir.Instr) {
				if r.Op == ir.OpRet {
					g.addEdge(idx[r], idx[in], CallEdge)
				}
			})
		}
	}
	// Memory edges: alloca/global accesses aliasing through the base.
	for _, in := range instrs {
		switch in.Op {
		case ir.OpLoad:
			if d, ok := in.Args[0].(*ir.Instr); ok && d.Op == ir.OpAlloca {
				g.addEdge(idx[d], idx[in], MemoryEdge)
			}
		case ir.OpStore:
			if d, ok := in.Args[1].(*ir.Instr); ok && d.Op == ir.OpAlloca {
				g.addEdge(idx[in], idx[d], MemoryEdge)
			}
		}
	}
	return g
}

// ProGraML builds the full program graph of Cummins et al.: instruction
// nodes plus distinct value nodes (constants, parameters, globals), with
// control, data and call edges. Node features are a one-hot over
// NumOpcodes+3 categories (instructions by opcode; constants, parameters
// and globals as three extra categories).
func ProGraML(m *ir.Module) *Graph {
	instrs, idx := moduleInstrs(m)
	dim := int(ir.NumOpcodes) + 3
	g := &Graph{NodeFeats: featRows(len(instrs), dim)}
	for i, in := range instrs {
		g.NodeFeats[i][in.Op] = 1
	}
	addControlEdges(g, m, idx)

	// Value nodes. Constants are deduplicated by (type,payload); params
	// and globals get one node each.
	valNode := make(map[string]int)
	nodeOf := func(v ir.Value) (int, bool) {
		var key string
		var cat int
		switch x := v.(type) {
		case *ir.Instr:
			return idx[x], true
		case *ir.Const:
			key = "c|" + x.Ty.String() + "|" + x.Ref()
			cat = 0
		case *ir.Param:
			key = fmt.Sprintf("p|%p", x)
			cat = 1
		case *ir.Global:
			key = "g|" + x.Name
			cat = 2
		default:
			return 0, false
		}
		if n, ok := valNode[key]; ok {
			return n, true
		}
		feat := make([]float64, dim)
		feat[int(ir.NumOpcodes)+cat] = 1
		g.NodeFeats = append(g.NodeFeats, feat)
		n := len(g.NodeFeats) - 1
		valNode[key] = n
		return n, true
	}
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) {
			for _, a := range in.Args {
				if n, ok := nodeOf(a); ok {
					g.addEdge(n, idx[in], DataEdge)
				}
			}
			if in.Op == ir.OpCall && in.Callee != nil && !in.Callee.IsDecl() {
				entry := in.Callee.Entry()
				if len(entry.Instrs) > 0 {
					g.addEdge(idx[in], idx[entry.Instrs[0]], CallEdge)
				}
			}
		})
	}
	return g
}

// Milepost computes a Milepost-GCC-style vector of 56 static code features
// (instruction category counts, CFG shape, loop structure, memory traffic).
func Milepost(m *ir.Module) Vector {
	const dim = 56
	v := make(Vector, dim)
	set := func(i int, x float64) { v[i] += x }
	totalBlocks, totalEdges := 0, 0
	for _, f := range m.Functions {
		if f.IsDecl() {
			continue
		}
		set(0, 1) // number of functions
		set(1, float64(len(f.Params)))
		nb := len(f.Blocks)
		totalBlocks += nb
		set(2, float64(nb))
		preds := f.Preds()
		for _, b := range f.Blocks {
			np := len(preds[b])
			ns := len(b.Succs())
			totalEdges += ns
			set(3, float64(ns))
			switch {
			case np == 1:
				set(4, 1)
			case np == 2:
				set(5, 1)
			case np > 2:
				set(6, 1)
			}
			switch {
			case ns == 1:
				set(7, 1)
			case ns == 2:
				set(8, 1)
			case ns > 2:
				set(9, 1)
			}
			n := len(b.Instrs)
			switch {
			case n < 15:
				set(10, 1)
			case n <= 500:
				set(11, 1)
			default:
				set(12, 1)
			}
			for _, in := range b.Instrs {
				classifyInstr(in, set)
			}
		}
		dt := ir.NewDomTree(f)
		loops := dt.NaturalLoops()
		set(13, float64(len(loops)))
		for _, l := range loops {
			set(14, float64(len(l.Blocks)))
			if len(l.Blocks) > 8 {
				set(15, 1)
			}
		}
	}
	set(16, float64(len(m.Globals)))
	if totalBlocks > 0 {
		set(17, float64(totalEdges)/float64(totalBlocks))
	}
	return v
}

func classifyInstr(in *ir.Instr, set func(int, float64)) {
	set(18, 1) // total instructions
	switch {
	case in.Op == ir.OpAdd || in.Op == ir.OpSub:
		set(19, 1)
	case in.Op == ir.OpMul:
		set(20, 1)
	case in.Op == ir.OpSDiv || in.Op == ir.OpUDiv || in.Op == ir.OpSRem || in.Op == ir.OpURem:
		set(21, 1)
	case in.Op == ir.OpShl || in.Op == ir.OpLShr || in.Op == ir.OpAShr:
		set(22, 1)
	case in.Op == ir.OpAnd || in.Op == ir.OpOr || in.Op == ir.OpXor:
		set(23, 1)
	case in.Op.IsFloatBinary():
		set(24, 1)
	case in.Op == ir.OpLoad:
		set(25, 1)
	case in.Op == ir.OpStore:
		set(26, 1)
	case in.Op == ir.OpAlloca:
		set(27, 1)
	case in.Op == ir.OpGEP:
		set(28, 1)
	case in.Op == ir.OpPhi:
		set(29, 1)
		set(30, float64(len(in.Args)))
	case in.Op == ir.OpCall:
		set(31, 1)
		if in.Callee == nil {
			set(32, 1) // external/builtin call
		}
		set(33, float64(len(in.Args)))
	case in.Op == ir.OpICmp:
		set(34, 1)
	case in.Op == ir.OpFCmp:
		set(35, 1)
	case in.Op == ir.OpSelect:
		set(36, 1)
	case in.Op.IsCast():
		set(37, 1)
	case in.Op == ir.OpRet:
		set(38, 1)
	case in.Op == ir.OpBr:
		set(39, 1)
	case in.Op == ir.OpCondBr:
		set(40, 1)
	case in.Op == ir.OpSwitch:
		set(41, 1)
		set(42, float64(len(in.SwitchVals)))
	}
	// Operand census.
	for _, a := range in.Args {
		switch x := a.(type) {
		case *ir.Const:
			set(43, 1)
			if !x.Ty.IsFloat() {
				switch x.I {
				case 0:
					set(44, 1)
				case 1:
					set(45, 1)
				}
			} else {
				set(46, 1)
			}
		case *ir.Param:
			set(47, 1)
		case *ir.Global:
			set(48, 1)
		case *ir.Instr:
			set(49, 1)
		}
	}
	if in.Ty.IsFloat() {
		set(50, 1)
	}
	if in.Ty.IsPtr() {
		set(51, 1)
	}
	if in.Ty.IsInt() && in.Ty.Bits == 1 {
		set(52, 1)
	}
	if in.Ty.IsInt() && in.Ty.Bits == 8 {
		set(53, 1)
	}
	if in.Ty.IsInt() && in.Ty.Bits == 64 {
		set(54, 1)
	}
	if in.Ty.IsVoid() {
		set(55, 1)
	}
}

// ir2vecDim is the dimensionality of the IR2Vec-style embedding. The
// original uses 300; 64 keeps the from-scratch models cheap while
// preserving the construction (seed vocabulary + flow-weighted sums).
const ir2vecDim = 64

// IR2Vec implements the symbolic flavour of IR2Vec: every opcode, type and
// operand kind has a deterministic seed vector; an instruction embeds as a
// weighted sum (w_opc=1, w_type=0.5, w_arg=0.2); the program embedding is
// the sum over all instructions.
func IR2Vec(m *ir.Module) Vector {
	v := make(Vector, ir2vecDim)
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) {
			acc := seedVec("opc:" + in.Op.String())
			addScaled(v, acc, 1.0)
			addScaled(v, seedVec("ty:"+in.Type().String()), 0.5)
			for _, a := range in.Args {
				addScaled(v, seedVec("arg:"+argKind(a)), 0.2)
			}
			if in.Op == ir.OpICmp || in.Op == ir.OpFCmp {
				addScaled(v, seedVec("pred:"+in.Pred.String()), 0.3)
			}
		})
	}
	return v
}

func argKind(a ir.Value) string {
	switch a.(type) {
	case *ir.Const:
		return "const"
	case *ir.Param:
		return "param"
	case *ir.Global:
		return "global"
	case *ir.Function:
		return "func"
	default:
		return "ssa"
	}
}

func addScaled(dst Vector, src []float64, w float64) {
	for i := range dst {
		dst[i] += w * src[i]
	}
}

// seedCache memoizes the deterministic seed vectors. A sync.Map keeps the
// hot path lock-free: the vocabulary is tiny (one entry per opcode, type
// and operand kind) and read-mostly, and holding a global mutex while
// generating the vector serialized every featurize worker.
var seedCache sync.Map // token string -> []float64

// seedVec derives a deterministic pseudo-random unit-scale vector from a
// token via an FNV-based SplitMix stream (the "seed embedding vocabulary").
// The derivation is a pure function of the token, so a racing duplicate
// computation is harmless — LoadOrStore keeps the first stored copy.
func seedVec(token string) []float64 {
	if v, ok := seedCache.Load(token); ok {
		return v.([]float64)
	}
	var h uint64 = 1469598103934665603
	for i := 0; i < len(token); i++ {
		h ^= uint64(token[i])
		h *= 1099511628211
	}
	v := make([]float64, ir2vecDim)
	x := h
	for i := range v {
		// SplitMix64 step.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		v[i] = float64(int64(z)) / float64(1<<63) * 0.5
	}
	stored, _ := seedCache.LoadOrStore(token, v)
	return stored.([]float64)
}

// Distance returns the Euclidean distance between two vectors (used for
// the Figure 10 histogram-distance analysis and by the evader strategies).
func Distance(a, b Vector) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	for i := n; i < len(a); i++ {
		s += a[i] * a[i]
	}
	for i := n; i < len(b); i++ {
		s += b[i] * b[i]
	}
	return math.Sqrt(s)
}
