package ir_test

import (
	"testing"

	"repro/internal/ir"
)

// BenchmarkVerify is the verifier run every MiniC compile, pass pipeline
// and obfuscation ends in, over the dominator-tree corpus. One op verifies
// every module of the corpus once.
func BenchmarkVerify(b *testing.B) {
	corpus := domCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cm := range corpus {
			if err := cm.m.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

var sinkDomTree *ir.DomTree

// BenchmarkNewDomTree builds the dominator tree of every defined function
// of the corpus once per op.
func BenchmarkNewDomTree(b *testing.B) {
	var fns []*ir.Function
	for _, cm := range domCorpus(b) {
		for _, f := range cm.m.Functions {
			if !f.IsDecl() {
				fns = append(fns, f)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fns {
			sinkDomTree = ir.NewDomTree(f)
		}
	}
}
