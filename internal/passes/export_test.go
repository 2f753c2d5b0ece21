package passes

import "repro/internal/ir"

// Pass is one per-function pass of a pipeline stage, by name.
type Pass struct {
	Name string
	Run  func(*ir.Function) bool
}

// O3Stages returns the stages Optimize runs at O3 after Inline(m, 60), in
// order, so a test can verify the IR after every single pass.
func O3Stages() [][]Pass {
	out := make([][]Pass, len(pipelines[O3]))
	for i, s := range pipelines[O3] {
		for _, p := range s {
			out[i] = append(out[i], Pass{p.name, p.run})
		}
	}
	return out
}
