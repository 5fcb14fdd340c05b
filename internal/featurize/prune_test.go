package featurize_test

// A graph holds only the pocket nodes some edge reads. These tests
// score and train every model family on such graphs and on the same
// graphs inflated back to the full-pocket layout (every pocket atom at
// row NumLigand+j), and require the two to agree bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"deepfusion/internal/chem"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/libgen"
	"deepfusion/internal/nn"
	"deepfusion/internal/target"
)

// posesOn places count library compounds in p, each shifted by a
// random offset so the poses contact different pocket atoms.
func posesOn(rng *rand.Rand, p *target.Pocket, count int) []*chem.Mol {
	var mols []*chem.Mol
	for i := rng.Intn(50); len(mols) < count; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		p.PlaceLigand(m)
		d := chem.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		for a := range m.Atoms {
			pos := m.Atoms[a].Pos
			m.Atoms[a].Pos = chem.Vec3{X: pos.X + d.X, Y: pos.Y + d.Y, Z: pos.Z + d.Z}
		}
		mols = append(mols, m)
	}
	return mols
}

// inflated returns copies of samples whose graphs are in the
// full-pocket layout, and checks that the layouts differ at all.
func inflated(t *testing.T, samples []*fusion.Sample) []*fusion.Sample {
	t.Helper()
	out := make([]*fusion.Sample, len(samples))
	pruned, full := 0, 0
	for i, s := range samples {
		g, err := featurize.InflateGraph(s.Graph, s.Pocket, s.Mol)
		if err != nil {
			t.Fatalf("sample %s: %v", s.ID, err)
		}
		twin := *s
		twin.Graph = g
		out[i] = &twin
		pruned += s.Graph.NumNodes()
		full += g.NumNodes()
	}
	if pruned >= full {
		t.Fatalf("pruned graphs hold %d nodes, full-pocket graphs %d", pruned, full)
	}
	return out
}

// sampleSet featurizes perPocket poses on each screening target, half
// through the target's prefeature and half by brute force.
func sampleSet(rng *rand.Rand, vo featurize.VoxelOptions, perPocket int) []*fusion.Sample {
	gro := featurize.DefaultGraphOptions()
	var samples []*fusion.Sample
	for _, p := range target.All() {
		pre := featurize.NewPocketPrefeature(p, vo, gro)
		for i, m := range posesOn(rng, p, perPocket) {
			id := fmt.Sprintf("%s/%d", p.Name, i)
			if i%2 == 0 {
				samples = append(samples, fusion.FeaturizeComplexWithPrefeature(nil, pre, id, m, p.TrueAffinity(m)))
			} else {
				samples = append(samples, fusion.FeaturizeComplex(id, p, m, p.TrueAffinity(m), vo, gro))
			}
		}
	}
	return samples
}

func TestPrunedGraphScoresMatchFullPocketLayout(t *testing.T) {
	vo := featurize.DefaultVoxelOptions()
	const perPocket = 3
	pruned := sampleSet(rand.New(rand.NewSource(7)), vo, perPocket)
	full := inflated(t, pruned)

	cfg := fusion.DefaultCNN3DConfig()
	cfg.Voxel = vo
	cnn := fusion.NewCNN3D(cfg, 11)
	sg := fusion.NewSGCNN(fusion.DefaultSGCNNConfig(), 13)
	families := []struct {
		name string
		into func([]*fusion.Sample, *fusion.Workspace, []float64)
	}{
		{"CNN3D", cnn.PredictBatchInto},
		{"SGCNN", sg.PredictBatchInto},
		{"Late", (&fusion.LateFusion{CNN: cnn, SG: sg}).PredictBatchInto},
		{"Mid", fusion.NewFusion(fusion.DefaultMidFusionConfig(), cnn, sg, 14).PredictBatchInto},
		{"Coherent", fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, 15).PredictBatchInto},
	}
	// One batch per pocket, then every pose in one mixed-pocket batch.
	var batches [][2]int
	for lo := 0; lo < len(pruned); lo += perPocket {
		batches = append(batches, [2]int{lo, lo + perPocket})
	}
	batches = append(batches, [2]int{0, len(pruned)})

	for _, prec := range []fusion.Precision{fusion.PrecisionF64, fusion.PrecisionF32} {
		ws := fusion.NewWorkspaceFor(prec)
		for _, f := range families {
			for _, b := range batches {
				got := make([]float64, b[1]-b[0])
				want := make([]float64, b[1]-b[0])
				f.into(pruned[b[0]:b[1]], ws, got)
				f.into(full[b[0]:b[1]], ws, want)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("%s %s %s: pruned graph scores %v, full-pocket graph %v",
							prec, f.name, pruned[b[0]+i].ID, got[i], want[i])
					}
				}
			}
		}
	}
}

// requireSameWeights fails unless trained and twin hold bit-identical
// values, and unless training moved every parameter of the graph
// layers away from init, so that the comparison covers the gradients
// that flow through the graph.
func requireSameWeights(t *testing.T, what string, trained, twin, init []*nn.Param) {
	t.Helper()
	if len(trained) != len(twin) || len(trained) != len(init) {
		t.Fatalf("%s: %d, %d and %d params", what, len(trained), len(twin), len(init))
	}
	graphParams := 0
	for i, p := range trained {
		moved := false
		for j, v := range p.Value.Data {
			if w := twin[i].Value.Data[j]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s: %s[%d] is %v after training on pruned graphs, %v on full-pocket graphs", what, p.Name, j, v, w)
			}
			moved = moved || v != init[i].Value.Data[j]
		}
		if prefix, _, _ := strings.Cut(p.Name, "."); prefix == "proj" || prefix == "gg" || prefix == "gather" {
			graphParams++
			if !moved {
				t.Fatalf("%s: training left %s (param %d) at its initial value", what, p.Name, i)
			}
		}
	}
	if graphParams == 0 {
		t.Fatalf("%s: no graph layer among the trained params", what)
	}
}

func TestPrunedGraphTrainingMatchesFullPocketLayout(t *testing.T) {
	vo := featurize.VoxelOptions{GridSize: 4, Resolution: 6.0, Sigma: 0.8}
	pruned := sampleSet(rand.New(rand.NewSource(8)), vo, 4)
	full := inflated(t, pruned)
	trainP, valP := pruned[:12], pruned[12:]
	trainF, valF := full[:12], full[12:]

	sgCfg := fusion.DefaultSGCNNConfig()
	sgCfg.BatchSize, sgCfg.Epochs = 4, 2
	sgP, _ := fusion.TrainSGCNN(sgCfg, trainP, valP, 22)
	sgF, _ := fusion.TrainSGCNN(sgCfg, trainF, valF, 22)
	requireSameWeights(t, "TrainSGCNN", sgP.Params(), sgF.Params(), fusion.NewSGCNN(sgCfg, 22).Params())

	cnnCfg := fusion.DefaultCNN3DConfig()
	cnnCfg.Voxel = vo
	cnnCfg.ConvFilters1, cnnCfg.ConvFilters2, cnnCfg.DenseNodes = 4, 6, 8
	fuCfg := fusion.DefaultCoherentConfig()
	fuCfg.BatchSize, fuCfg.Epochs = 4, 2
	newFusion := func() *fusion.Fusion {
		return fusion.NewFusion(fuCfg, fusion.NewCNN3D(cnnCfg, 23), fusion.NewSGCNN(sgCfg, 24), 25)
	}
	fuP, fuF := newFusion(), newFusion()
	fusion.TrainFusion(fuP, trainP, valP, 26)
	fusion.TrainFusion(fuF, trainF, valF, 26)
	requireSameWeights(t, "TrainFusion", fuP.Params(), fuF.Params(), newFusion().Params())
}
