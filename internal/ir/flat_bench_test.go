package ir_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/progcache"
)

// The flat-IR benchmarks: what a flat-view miss pays (Flatten), what the old
// read-only path paid per consumer (Clone), and what a progcache flat hit
// costs once the view is built (share, no copy). They use the same mid-sized
// program as the embed builder benches, so the numbers compare directly.
// Run them with `go test -run '^$' -bench . -benchmem ./internal/ir/`.
const benchSrc = `
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

func benchModule(b *testing.B) *ir.Module {
	b.Helper()
	m, err := minic.CompileSource(benchSrc, "bench")
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFlatten is the one-time cost of building the struct-of-arrays
// view — paid once per cached source, amortized over every read-only
// consumer that follows.
func BenchmarkFlatten(b *testing.B) {
	m := benchModule(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ir.Flatten(m)
	}
}

// BenchmarkClone is the per-consumer cost the read-only paths paid before
// the flat view existed: a full deep copy of the pointer IR.
func BenchmarkClone(b *testing.B) {
	m := benchModule(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Clone()
	}
}

// BenchmarkFlatShare is a progcache flat hit: after the first CompileFlat
// the view is shared, so a hit is a cache lookup and nothing else. Contrast
// with BenchmarkCompileThaw, the mutating-consumer path that still builds a
// private copy.
func BenchmarkFlatShare(b *testing.B) {
	progcache.Reset()
	if _, err := progcache.CompileFlat(benchSrc, "bench"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := progcache.CompileFlat(benchSrc, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThaw is the new per-mutator cost: rebuilding a pointer module
// from the flat tables with arena allocation. Compare against
// BenchmarkClone — the acceptance bar is ≥2x on time and ≥5x on allocs.
func BenchmarkThaw(b *testing.B) {
	fl := ir.Flatten(benchModule(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ir.Thaw(fl)
	}
}

// BenchmarkCompileThaw is a progcache hit on the thaw path: cached flat
// view plus an arena thaw, what Transform and the coevo loop now pay per
// mutable copy.
func BenchmarkCompileThaw(b *testing.B) {
	progcache.Reset()
	if _, err := progcache.CompileThaw(benchSrc, "bench"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := progcache.CompileThaw(benchSrc, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
