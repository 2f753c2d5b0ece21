package embed_test

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/minic"
)

// benchModule compiles a mid-sized program once for the embedding benches.
func benchModule(b *testing.B) *ir.Module {
	b.Helper()
	const src = `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main() {
	int s = 0;
	for (int i = 0; i < 20; i++) {
		if (i % 3 == 0) s += fib(i % 10);
		else if (i % 3 == 1) s ^= i * 7;
		else s -= i;
	}
	int a[16];
	for (int i = 0; i < 16; i++) a[i] = s + i;
	for (int i = 0; i < 16; i++) s += a[i] % 13;
	return s;
}`
	m, err := minic.CompileSource(src, "bench")
	if err != nil {
		b.Fatal(err)
	}
	return m
}

var graphBuilderNames = []string{"cfg", "cfg_compact", "cdfg", "cdfg_plus", "programl"}

// BenchmarkGraphBuilders measures the production graph-embedding path,
// embed.Get(name).GraphFlat over a shared ir.Flat view (featurize obtains
// the view from progcache, so Flatten cost — measured separately by
// BenchmarkFlatten — is off the per-embed path). cfg_compact's native flat
// builder allocates only its output; the others thaw the view and run the
// pointer builder.
func BenchmarkGraphBuilders(b *testing.B) {
	fl := ir.Flatten(benchModule(b))
	for _, name := range graphBuilderNames {
		emb, err := embed.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				emb.GraphFlat(fl)
			}
		})
	}
}

// BenchmarkHistogram covers the hot vector embedding used by most arena
// pipelines, on its production (flat) path.
func BenchmarkHistogram(b *testing.B) {
	fl := ir.Flatten(benchModule(b))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		embed.HistogramFlat(fl)
	}
}

// BenchmarkVectorBuilders measures the remaining vector embeddings through
// embed.Get(name).VecFlat, the entry point featurize calls (neither has a
// native flat builder, so VecFlat thaws and runs the pointer builder).
func BenchmarkVectorBuilders(b *testing.B) {
	fl := ir.Flatten(benchModule(b))
	for _, name := range []string{"milepost", "ir2vec"} {
		emb, err := embed.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				emb.VecFlat(fl)
			}
		})
	}
}

// BenchmarkIR2VecParallel exercises the seed-vector cache from all CPUs the
// way featurize workers do. Before the sync.Map fix, a global mutex held
// across the whole vector generation serialized every worker, so this bench
// barely scaled; with the lock-free read path it scales with GOMAXPROCS.
func BenchmarkIR2VecParallel(b *testing.B) {
	m := benchModule(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			embed.IR2Vec(m)
		}
	})
}
