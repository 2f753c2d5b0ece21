package core

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ir"
	"repro/internal/progcache"
)

const apiTestSrc = `int main() { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } return s; }`

func TestEmbedSource(t *testing.T) {
	v, err := EmbedSource(progcache.Default, apiTestSrc, "histogram")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != int(ir.NumOpcodes) {
		t.Fatalf("histogram has %d dims, want %d", len(v), ir.NumOpcodes)
	}
	total := 0.0
	for _, x := range v {
		total += x
	}
	if total == 0 {
		t.Fatal("histogram of a non-empty program is all zeros")
	}

	if _, err := EmbedSource(progcache.Default, apiTestSrc, "nope"); err == nil {
		t.Fatal("unknown embedding accepted")
	}
	if _, err := EmbedSource(progcache.Default, apiTestSrc, "cfg"); err == nil ||
		!strings.Contains(err.Error(), "graph-shaped") {
		t.Fatalf("graph embedding should be rejected with guidance, got %v", err)
	}
	if _, err := EmbedSource(progcache.Default, "int main( {", "histogram"); err == nil {
		t.Fatal("broken source compiled")
	}
}

func TestTransformEmbed(t *testing.T) {
	cache := progcache.New(4)
	irText, v, err := TransformEmbed(cache, apiTestSrc, "sub", "histogram", 7)
	if err != nil {
		t.Fatal(err)
	}
	if irText == "" {
		t.Fatal("empty transformed IR")
	}
	if len(v) != int(ir.NumOpcodes) {
		t.Fatalf("embedding has %d dims, want %d", len(v), ir.NumOpcodes)
	}
	// Same seed replays identically.
	ir2, v2, err := TransformEmbed(cache, apiTestSrc, "sub", "histogram", 7)
	if err != nil {
		t.Fatal(err)
	}
	if irText != ir2 {
		t.Fatal("same-seed transform is not deterministic")
	}
	for i := range v {
		if v[i] != v2[i] {
			t.Fatal("same-seed embedding differs")
		}
	}

	if _, _, err := TransformEmbed(cache, apiTestSrc, "warp-drive", "histogram", 1); err == nil {
		t.Fatal("unknown evader accepted")
	}
}

func TestTrainVectorModels(t *testing.T) {
	set, err := dataset.Generate(3, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	models, err := TrainVectorModels(set, "histogram", []string{"rf", "lr"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("trained %d models, want 2", len(models))
	}
	// The models must at least beat random on their own training set.
	for name, m := range models {
		hits := 0
		for _, s := range set.Samples {
			v, err := EmbedSource(progcache.Default, s.Source, "histogram")
			if err != nil {
				t.Fatal(err)
			}
			if m.Predict(v) == s.Class {
				hits++
			}
		}
		acc := float64(hits) / float64(len(set.Samples))
		if acc < 0.5 {
			t.Errorf("%s: train accuracy %.2f, want >= 0.5", name, acc)
		}
	}

	if _, err := TrainVectorModels(set, "histogram", nil, 1); err == nil {
		t.Fatal("empty model list accepted")
	}
	if _, err := TrainVectorModels(set, "histogram", []string{"rf", "rf"}, 1); err == nil {
		t.Fatal("duplicate model accepted")
	}
	if _, err := TrainVectorModels(set, "histogram", []string{"dgcnn"}, 1); err == nil {
		t.Fatal("dgcnn accepted as a vector model")
	}
}
