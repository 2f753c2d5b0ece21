package srcobf_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minic"
	"repro/internal/srcobf"
)

// corpus is the input of the golden oracle and the micro-benchmark: the
// first program of each class of a fixed 8-class dataset.
func corpus(tb testing.TB) []string {
	tb.Helper()
	const classes, per = 8, 12
	set, err := dataset.Generate(classes, per, 12345)
	if err != nil {
		tb.Fatal(err)
	}
	srcs := make([]string, 0, classes)
	for c := 0; c < classes; c++ {
		srcs = append(srcs, set.Samples[c*per].Source)
	}
	return srcs
}

// goldenLines renders the oracle: per strategy, a hash of the one-shot
// TransformSource outputs over the corpus (program i at seed i+1), then a
// trace of a size-4 population over 5 generations — every member's
// sequence, score and flat-view size after construction and each Evolve.
func goldenLines(t *testing.T) []string {
	srcs := corpus(t)
	var lines []string
	for _, strat := range srcobf.StrategyNames() {
		h := sha256.New()
		for i, src := range srcs {
			out, err := srcobf.TransformSource(src, strat, rand.New(rand.NewSource(int64(i+1))))
			if err != nil {
				t.Fatalf("%s program %d: %v", strat, i, err)
			}
			fmt.Fprintf(h, "%d\n%s\n", len(out), out)
		}
		lines = append(lines, fmt.Sprintf("transform %s %x", strat, h.Sum(nil)))
	}
	f, err := minic.Parse(srcs[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range srcobf.StrategyNames() {
		rng := rand.New(rand.NewSource(1))
		p, err := srcobf.NewPopulation(f, strat, 4, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g <= 5; g++ {
			if g > 0 {
				p.Evolve(rng)
			}
			for i, m := range p.Members {
				instrs := -1
				if m.Flat != nil {
					instrs = len(m.Flat.Instrs)
				}
				seq := make([]string, len(m.Seq))
				for k, st := range m.Seq {
					seq[k] = fmt.Sprintf("%s:%d", st.Name, st.Seed)
				}
				// Ten significant digits: exact enough to catch any change of
				// program, loose enough to survive fused multiply-adds on
				// architectures that have them.
				lines = append(lines, fmt.Sprintf("pop %s gen %d member %d score %.10g instrs %d seq [%s]",
					strat, g, i, m.Score, instrs, strings.Join(seq, " ")))
			}
		}
	}
	return lines
}

// TestGoldenOracle pins the strategies' observable output to a file
// recorded before the search learned to resume candidates from a member's
// last state: the winners TransformSource prints and the member sequences,
// scores and flat views a population walks through must stay identical.
// The file is a fixed reference, not a snapshot to refresh; a change meant
// to alter the strategies' output replaces it with the lines this test
// logs on failure.
func TestGoldenOracle(t *testing.T) {
	got := strings.Join(goldenLines(t), "\n") + "\n"
	golden := filepath.Join("testdata", "golden.txt")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Logf("output:\n%s", got)
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("srcobf output drifted from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("srcobf output drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// BenchmarkTransformSource times one pass of each strategy's one-shot
// entry point over the golden corpus (program i at seed i+1):
//
//	go test ./internal/srcobf -run '^$' -bench TransformSource -benchmem
func BenchmarkTransformSource(b *testing.B) {
	srcs := corpus(b)
	for _, strat := range srcobf.StrategyNames() {
		b.Run(strat, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for i, src := range srcs {
					if _, err := srcobf.TransformSource(src, strat, rand.New(rand.NewSource(int64(i+1)))); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
