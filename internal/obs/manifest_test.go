package obs

import (
	"path/filepath"
	"strings"
	"testing"
)

func testManifest() *Manifest {
	m := NewManifest("game0", map[string]string{"classes": "4", "per": "8"}, 1)
	m.AddCell("game0/histogram/rf", "accuracy", []float64{0.9, 1.0, 0.95}).
		F1 = []float64{0.89, 1.0, 0.94}
	m.AddCell("game0/histogram/cnn", "accuracy", []float64{0.8, 0.85, 0.8})
	m.WallNS = 12345
	m.Metrics = Snapshot{
		Counters: map[string]int64{"progcache.hits": 42},
		Timers:   map[string]TimerStat{"phase.fit": {Count: 3, TotalNS: 9e6}},
	}
	return m
}

// TestManifestRoundTrip is the emit → load → diff-to-zero loop the
// acceptance criteria pin: a manifest diffed against its own file must be
// identical in every cell.
func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	path := filepath.Join(t.TempDir(), "runs", "game0.json") // exercises MkdirAll
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	d := DiffManifests(m, loaded)
	if !d.Identical {
		t.Fatalf("round-tripped manifest differs: %+v", d)
	}
	if d.MaxAbsDelta != 0 {
		t.Fatalf("round-trip max delta = %v, want 0", d.MaxAbsDelta)
	}
	if len(d.Cells) != 2 || len(d.OnlyA) != 0 || len(d.OnlyB) != 0 {
		t.Fatalf("cell matching broken: %+v", d)
	}
}

// TestDiffMatchesCellsByMetric: one cell name may carry several metrics; a
// manifest diffed against itself must pair each with its own metric.
func TestDiffMatchesCellsByMetric(t *testing.T) {
	m := NewManifest("fuzz", nil, 1)
	m.AddCell("fuzz/O2", "cells", []float64{3800})
	m.AddCell("fuzz/O2", "failures", []float64{0})
	d := DiffManifests(m, m)
	if !d.Identical || d.MaxAbsDelta != 0 || len(d.Cells) != 2 {
		t.Fatalf("self-diff of a two-metric cell: %+v", d)
	}
}

func TestDiffDetectsRegression(t *testing.T) {
	a := testManifest()
	b := testManifest()
	b.Cells[0].Values[1] = 0.7 // accuracy drop in one round
	b.Cells[0].Summary.Mean = 0.85
	d := DiffManifests(a, b)
	if d.Identical {
		t.Fatal("diff missed a changed accuracy value")
	}
	if d.Cells[0].Identical {
		t.Fatal("cell diff missed the changed round")
	}
	if d.MaxAbsDelta <= 0 {
		t.Fatalf("max delta = %v, want > 0", d.MaxAbsDelta)
	}
	var out strings.Builder
	d.WriteText(&out)
	if !strings.Contains(out.String(), "accuracy blocks: differ") {
		t.Fatalf("report text did not flag the difference:\n%s", out.String())
	}
}

func TestDiffDetectsMissingCells(t *testing.T) {
	a := testManifest()
	b := testManifest()
	b.Cells = b.Cells[:1]
	b.AddCell("game0/histogram/svm", "accuracy", []float64{0.5})
	d := DiffManifests(a, b)
	if d.Identical {
		t.Fatal("diff missed mismatched cell sets")
	}
	if len(d.OnlyA) != 1 || d.OnlyA[0] != "game0/histogram/cnn" {
		t.Fatalf("OnlyA = %v", d.OnlyA)
	}
	if len(d.OnlyB) != 1 || d.OnlyB[0] != "game0/histogram/svm" {
		t.Fatalf("OnlyB = %v", d.OnlyB)
	}
}

// TestDiffGateMissingCells: at any tolerance a candidate that lost a
// gated baseline cell fails, while a lost volatile cell or an extra
// candidate cell does not.
func TestDiffGateMissingCells(t *testing.T) {
	for _, tc := range []struct {
		name    string
		edit    func(a, b *Manifest)
		wantErr bool
	}{
		{"missing cell fails", func(a, b *Manifest) { b.Cells = b.Cells[:1] }, true},
		{"missing volatile cell passes", func(a, b *Manifest) {
			a.AddVolatileCell("game0/retrain_ms", "ms", []float64{12})
		}, false},
		{"extra candidate cell passes", func(a, b *Manifest) {
			b.AddCell("game0/histogram/svm", "accuracy", []float64{0.5})
		}, false},
	} {
		a, b := testManifest(), testManifest()
		tc.edit(a, b)
		if err := DiffManifests(a, b).Gate(0); (err != nil) != tc.wantErr {
			t.Errorf("%s: Gate(0) = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	m := testManifest()
	m.Schema = ManifestSchema + 1
	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a manifest from a different schema")
	}
}

// Canonical must strip every volatile field (host, times, metrics) and be
// insensitive to when or where the run happened.
func TestCanonicalStripsVolatileFields(t *testing.T) {
	a := testManifest()
	b := testManifest()
	b.Start = "1999-01-01T00:00:00Z"
	b.WallNS = 999999
	b.Host.GOMAXPROCS = 128
	b.Metrics = Snapshot{}
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Fatalf("canonical blocks differ on volatile-only changes:\n%s\nvs\n%s", ca, cb)
	}
	if strings.Contains(string(ca), "gomaxprocs") || strings.Contains(string(ca), "wall_ns") {
		t.Fatalf("canonical block leaks volatile fields:\n%s", ca)
	}
}

// TestVolatileCellsDoNotGate: timing cells may differ arbitrarily between
// two runs without breaking a tol-0 diff or the Canonical block; real cell
// regressions still gate.
func TestVolatileCellsDoNotGate(t *testing.T) {
	mk := func(ms float64) *Manifest {
		m := testManifest()
		m.AddVolatileCell("coevo/gen000/retrain_ms", "ms", []float64{ms})
		return m
	}
	a, b := mk(12.5), mk(980.0)
	d := DiffManifests(a, b)
	if !d.Identical || d.MaxAbsDelta != 0 {
		t.Fatalf("volatile delta gated the diff: identical=%v max=%v", d.Identical, d.MaxAbsDelta)
	}
	var vd *CellDiff
	for i := range d.Cells {
		if d.Cells[i].Name == "coevo/gen000/retrain_ms" {
			vd = &d.Cells[i]
		}
	}
	if vd == nil || !vd.Volatile {
		t.Fatal("volatile cell missing from the diff report")
	}
	// Canonical strips it, so fixed-seed runs stay byte-identical.
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Fatal("volatile cell leaked into the Canonical block")
	}
	if strings.Contains(string(ca), "retrain_ms") {
		t.Fatal("Canonical still names the volatile cell")
	}
	// A volatile cell present on one side only is reported but not gating.
	c := testManifest()
	d = DiffManifests(a, c)
	if !d.Identical {
		t.Fatal("one-sided volatile cell broke Identical")
	}
	if len(d.OnlyA) != 1 {
		t.Fatalf("one-sided volatile cell not reported: %v", d.OnlyA)
	}
	// Non-volatile regressions still gate as before.
	reg := testManifest()
	reg.Cells[1].Summary.Mean += 0.5
	if d := DiffManifests(a, reg); d.Identical || d.MaxAbsDelta == 0 {
		t.Fatal("real regression slipped past the gate")
	}
}
