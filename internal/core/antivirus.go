package core

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/ir"
	"repro/internal/progcache"
)

// SignatureScanner is the stand-in for the paper's VirusTotal comparison
// (Figure 16). Industrial anti-virus engines rely heavily on signatures:
// byte or instruction patterns harvested from known family members. This
// scanner extracts opcode n-grams that are common in the family's training
// samples but absent from benign training code, and flags a program when
// enough signatures match. It is engineered "for any binary" — nothing
// about it is specific to the family — which reproduces the asymmetry the
// paper observes: decent detection on untransformed samples, visible decay
// under transformation, always below the specialised rf classifier.
type SignatureScanner struct {
	n          int
	signatures map[string]bool
	threshold  int
}

// TrainSignatureScanner harvests length-n opcode n-grams present in at
// least minSupport of the malware samples and in none of the benign ones.
func TrainSignatureScanner(malware, benign []string, n int, minSupport float64) (*SignatureScanner, error) {
	if n < 2 {
		n = 4
	}
	counts := make(map[string]int)
	for _, src := range malware {
		// n-gram extraction only reads opcodes, so the cached flat view is
		// enough — the ensemble trains ten engines over the same corpora and
		// now compiles and flattens each source once instead of ten times,
		// streaming the dense opcode column instead of walking instructions.
		fl, err := progcache.CompileFlat(src, "sig")
		if err != nil {
			return nil, fmt.Errorf("core: signature training: %w", err)
		}
		for gram := range ngramsFlat(fl, n) {
			counts[gram]++
		}
	}
	benignGrams := make(map[string]bool)
	for _, src := range benign {
		fl, err := progcache.CompileFlat(src, "sig")
		if err != nil {
			return nil, fmt.Errorf("core: signature training: %w", err)
		}
		for gram := range ngramsFlat(fl, n) {
			benignGrams[gram] = true
		}
	}
	min := int(minSupport * float64(len(malware)))
	if min < 1 {
		min = 1
	}
	// The default threshold suits a single mid-strictness engine; the
	// ensemble overrides it per engine.
	sc := &SignatureScanner{n: n, signatures: make(map[string]bool), threshold: 6}
	for gram, c := range counts {
		if c >= min && !benignGrams[gram] {
			sc.signatures[gram] = true
		}
	}
	if len(sc.signatures) == 0 {
		return nil, fmt.Errorf("core: no discriminating signatures found")
	}
	return sc, nil
}

// NumSignatures reports the size of the signature database.
func (sc *SignatureScanner) NumSignatures() int { return len(sc.signatures) }

// ScanFlat reports whether the flat view matches the family (>= threshold
// signature hits).
func (sc *SignatureScanner) ScanFlat(fl *ir.Flat) bool {
	return sc.scanGrams(ngramsFlat(fl, sc.n))
}

func (sc *SignatureScanner) scanGrams(grams map[string]bool) bool {
	hits := 0
	for gram := range grams {
		if sc.signatures[gram] {
			hits++
			if hits >= sc.threshold {
				return true
			}
		}
	}
	return false
}

// ngramsFlat extracts the set of opcode n-grams along basic blocks. Block
// instruction spans are contiguous in the dense opcode column, so each
// n-gram is a direct substring of fl.Ops.
func ngramsFlat(fl *ir.Flat, n int) map[string]bool {
	out := make(map[string]bool)
	for bi := range fl.Blocks {
		ops := fl.Ops[fl.Blocks[bi].Ins0:fl.Blocks[bi].Ins1]
		for i := 0; i+n <= len(ops); i++ {
			out[string(ops[i:i+n])] = true
		}
	}
	return out
}

// AVEnsemble aggregates several signature engines of varying strictness,
// the way VirusTotal aggregates ~70 anti-virus products. Its detection rate
// for a program is the fraction of engines that flag it — the same
// quantity the paper's Figure 16 reports per transformation.
type AVEnsemble struct {
	engines []*SignatureScanner
}

// TrainAVEnsemble builds the engine grid: n-gram lengths 3..5 crossed with
// a spread of alert thresholds, all sharing the same training corpora.
func TrainAVEnsemble(malware, benign []string) (*AVEnsemble, error) {
	grid := []struct{ n, threshold int }{
		{3, 5}, {3, 8}, {3, 11},
		{4, 6}, {4, 8}, {4, 12},
		{5, 2}, {5, 3}, {5, 8}, {5, 16},
	}
	e := &AVEnsemble{}
	for _, g := range grid {
		sc, err := TrainSignatureScanner(malware, benign, g.n, 0.5)
		if err != nil {
			return nil, err
		}
		sc.threshold = g.threshold
		e.engines = append(e.engines, sc)
	}
	return e, nil
}

// DetectionRate returns the fraction of engines flagging m. The module is
// flattened once and all engines stream the same opcode column, instead of
// each engine re-walking the pointer IR.
func (e *AVEnsemble) DetectionRate(m *ir.Module) float64 {
	fl := ir.Flatten(m)
	flags := 0
	for _, sc := range e.engines {
		if sc.ScanFlat(fl) {
			flags++
		}
	}
	return float64(flags) / float64(len(e.engines))
}

// AntivirusRow is one column of Figure 16: detection rates per transformer.
type AntivirusRow struct {
	Transformer string
	// AVDetect is the ensemble's expected accuracy over the challenges: for
	// malware samples the fraction of engines that flag them, for benign
	// samples the fraction that stay silent (mirroring how the paper reads
	// VirusTotal percentages). RFDetect is the rf(504)-style classifier's
	// accuracy.
	AVDetect float64
	RFDetect float64
}

// AntivirusComparison reruns the Figure-16 comparison: the generic
// signature scanner versus the best specialised classifier, per
// transformation.
func AntivirusComparison(cfg MalwareConfig) ([]AntivirusRow, error) {
	if cfg.TrainPos <= 0 {
		cfg.TrainPos = 36
	}
	if cfg.Challenge <= 0 {
		cfg.Challenge = 12
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	set, err := dataset.MalwareSet(cfg.TrainPos+cfg.Challenge, cfg.TrainPos+cfg.Challenge, rng.Int63())
	if err != nil {
		return nil, err
	}
	var pos, neg []dataset.Sample
	for _, s := range set.Samples {
		if s.Class == 1 {
			pos = append(pos, s)
		} else {
			neg = append(neg, s)
		}
	}
	var posSrc, negSrc []string
	for _, s := range pos[:cfg.TrainPos] {
		posSrc = append(posSrc, s.Source)
	}
	for _, s := range neg[:cfg.TrainPos] {
		negSrc = append(negSrc, s.Source)
	}
	scanner, err := TrainAVEnsemble(posSrc, negSrc)
	if err != nil {
		return nil, err
	}

	// The specialised classifier: rf trained on the full 7-transformer
	// suite, as in Figure 15.
	mres, err := MalwareStudy(MalwareConfig{
		TrainPos: cfg.TrainPos, Challenge: cfg.Challenge,
		Models: []string{"rf"}, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	rfFull := mres.Acc["rf"][len(mres.Acc["rf"])-1]

	challenges := append(append([]dataset.Sample(nil), pos[cfg.TrainPos:]...), neg[cfg.TrainPos:]...)
	var rows []AntivirusRow
	for _, tr := range MalwareTransformers() {
		score, total := 0.0, 0
		for _, s := range challenges {
			m, err := Transform(s.Source, tr, rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return nil, err
			}
			rate := scanner.DetectionRate(m)
			if s.Class == 1 {
				score += rate
			} else {
				score += 1 - rate
			}
			total++
		}
		rows = append(rows, AntivirusRow{
			Transformer: tr,
			AVDetect:    score / float64(total),
			RFDetect:    rfFull,
		})
	}
	return rows, nil
}
