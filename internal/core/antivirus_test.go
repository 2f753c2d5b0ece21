package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minic"
	"repro/internal/progcache"
)

func malwareBenignSources(t *testing.T, n int, seed int64) (pos, neg []string) {
	t.Helper()
	set, err := dataset.MalwareSet(n, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range set.Samples {
		if s.Class == 1 {
			pos = append(pos, s.Source)
		} else {
			neg = append(neg, s.Source)
		}
	}
	return pos, neg
}

func TestSignatureScannerSeparatesTraining(t *testing.T) {
	pos, neg := malwareBenignSources(t, 10, 31)
	sc, err := core.TrainSignatureScanner(pos[:8], neg[:8], 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumSignatures() == 0 {
		t.Fatal("no signatures harvested")
	}
	// Held-out family members must be flagged; held-out benign must not.
	for _, src := range pos[8:] {
		fl, err := progcache.CompileFlat(src, "m")
		if err != nil {
			t.Fatal(err)
		}
		if !sc.ScanFlat(fl) {
			t.Fatal("held-out family member not detected")
		}
	}
	for _, src := range neg[8:] {
		fl, err := progcache.CompileFlat(src, "m")
		if err != nil {
			t.Fatal(err)
		}
		if sc.ScanFlat(fl) {
			t.Fatal("benign program flagged")
		}
	}
}

func TestSignatureScannerRejectsUselessTraining(t *testing.T) {
	// Identical corpora on both sides leave no discriminating n-grams.
	pos, _ := malwareBenignSources(t, 4, 17)
	if _, err := core.TrainSignatureScanner(pos, pos, 4, 0.5); err == nil {
		t.Fatal("expected error when malware and benign corpora coincide")
	}
}

func TestAVEnsembleRates(t *testing.T) {
	pos, neg := malwareBenignSources(t, 10, 5)
	ens, err := core.TrainAVEnsemble(pos[:8], neg[:8])
	if err != nil {
		t.Fatal(err)
	}
	raw, err := minic.CompileSource(pos[9], "m")
	if err != nil {
		t.Fatal(err)
	}
	if rate := ens.DetectionRate(raw); rate < 0.9 {
		t.Fatalf("raw family member detection rate %.2f", rate)
	}
	benign, err := minic.CompileSource(neg[9], "m")
	if err != nil {
		t.Fatal(err)
	}
	if rate := ens.DetectionRate(benign); rate > 0.1 {
		t.Fatalf("benign false-positive rate %.2f", rate)
	}
	// Optimization must reduce (not eliminate) detection — the Figure 16
	// asymmetry.
	opt, err := core.Transform(pos[9], "O3", rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	optRate := ens.DetectionRate(opt)
	if optRate >= ens.DetectionRate(raw) {
		t.Fatalf("optimization did not degrade the scanner: %.2f vs %.2f",
			optRate, ens.DetectionRate(raw))
	}
	if optRate == 0 {
		t.Fatal("optimization fully blinded the ensemble — too brittle for Figure 16's shape")
	}
}
