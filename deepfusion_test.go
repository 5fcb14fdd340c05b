package deepfusion

import (
	"context"
	"testing"

	"deepfusion/internal/pdbbind"
)

func smallTrainOptions() TrainOptions {
	o := DefaultTrainOptions()
	o.Dataset = pdbbind.Options{NGeneral: 60, NRefined: 30, NCore: 10, ValFraction: 0.12, NumPockets: 5, Seed: 77}
	o.CNN.Epochs = 1
	o.SG.Epochs = 2
	o.Mid.Epochs = 1
	o.Coherent.Epochs = 1
	return o
}

func TestPublicAPITargetsAndLibraries(t *testing.T) {
	if len(Targets()) != 4 {
		t.Fatal("four targets expected")
	}
	if len(Libraries()) != 4 {
		t.Fatal("four libraries expected")
	}
	if TargetByName("spike1") == nil || TargetByName("bogus") != nil {
		t.Fatal("TargetByName")
	}
}

func TestPublicAPIParseAndPrepare(t *testing.T) {
	m, err := ParseSMILES("CC(=O)Oc1ccccc1C(=O)O.[Na+]")
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := PrepareLigand(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if prepared.ContainsMetal() {
		t.Fatal("preparation kept the salt")
	}
}

func TestTrainAndScreenEndToEnd(t *testing.T) {
	models, err := Train(smallTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if models.Coherent == nil || models.Late == nil || models.Mid == nil {
		t.Fatal("missing models")
	}
	// Screen a handful of library compounds against spike1.
	var mols []*Mol
	lib := Libraries()[0]
	for i := 0; len(mols) < 5; i++ {
		m, err := lib.Mol(i)
		if err != nil {
			continue
		}
		mols = append(mols, m)
	}
	res, err := NewPipeline(models).
		WithDocking(2, 1).
		WithSelection(CostWeights(), 3).
		Run(context.Background(), TargetByName("spike1"), mols)
	if err != nil {
		t.Fatal(err)
	}
	scores := res.Selected
	if len(scores) != 3 {
		t.Fatalf("selected %d compounds, want 3", len(scores))
	}
	// Ranking must be by combined cost, descending.
	w := CostWeights()
	for i := 1; i < len(scores); i++ {
		if w.Combined(scores[i]) > w.Combined(scores[i-1])+1e-9 {
			t.Fatal("selection not ranked")
		}
	}
	// Fusion predictions must be in pK space.
	for _, s := range scores {
		if s.Fusion < -5 || s.Fusion > 20 {
			t.Fatalf("fusion prediction %v implausible", s.Fusion)
		}
	}
}
