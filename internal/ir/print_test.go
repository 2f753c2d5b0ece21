package ir_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// printListing names the corpus module whose full text the golden file
// carries after the digests, so a mismatch can be read line by line; ollvm
// output has globals, switch, select, calls and GEPs in one listing.
const printListing = "seed 1 ollvm"

// printGolden renders the corpus the way testdata/print.txt records it: one
// sha256 of Module.String per corpus module, then the full listing of
// printListing.
func printGolden(t *testing.T) string {
	var sb, listing strings.Builder
	for _, cm := range domCorpus(t) {
		text := cm.m.String()
		fmt.Fprintf(&sb, "%s %x\n", cm.name, sha256.Sum256([]byte(text)))
		if cm.name == printListing {
			listing.WriteString(text)
		}
	}
	fmt.Fprintf(&sb, "--- %s\n", printListing)
	sb.WriteString(listing.String())
	return sb.String()
}

// TestPrintGolden pins the printer's output byte for byte, so a faster
// printer must reproduce exactly what the fmt-based one wrote.
func TestPrintGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/print.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := printGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("print.txt line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("print.txt: got %d lines, want %d", len(gl), len(wl))
}

var sinkText string

// BenchmarkModuleString prints every corpus module once per iteration.
func BenchmarkModuleString(b *testing.B) {
	corpus := domCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cm := range corpus {
			sinkText = cm.m.String()
		}
	}
}
