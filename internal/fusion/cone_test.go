package fusion

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"deepfusion/internal/featurize"
	"deepfusion/internal/nn"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// TestConeCoversLessThanTheGrid pins what the cone plan buys: on the
// paper's 48^3 grid every output stage of a single pose's cone is
// strictly inside the box the union plan would run, on all four
// pockets. (Where it buys nothing — the repro grid, whose cone is the
// whole grid and builds no response — is pinned with docked poses by
// screen.TestReproGridConeIsTheWholeGrid.)
func TestConeCoversLessThanTheGrid(t *testing.T) {
	vo, gro := featurize.PaperVoxelOptions(), featurize.DefaultGraphOptions()
	cfg := tinyCNNConfig()
	cfg.Voxel = vo
	m := NewCNN3D(cfg, 3)
	rng := rand.New(rand.NewSource(27))
	stages := func(p boxPlan) []tensor.Box { return []tensor.Box{p.c1, p.c2, p.c3, p.c4, p.flat} }
	for _, pocket := range target.All() {
		pre := featurize.NewPocketPrefeature(pocket, vo, gro)
		for i, mol := range boxTestPoses(rng, pocket, 5) {
			batch := []*Sample{FeaturizeComplexWithPrefeature(nil, pre, "pose", mol, 0)}
			cone, pf := m.plan(batch)
			if pf != pre {
				t.Fatalf("%s pose %d: a prefeature batch did not take the cone plan", pocket.Name, i)
			}
			// conv1's input may poke out of the occupied box (the cone
			// reads every voxel its output reaches); it must still be
			// smaller.
			union := m.planBoxes(m.batchBox(batch))
			if cone.in.Volume() >= union.in.Volume() {
				t.Fatalf("%s pose %d: cone input %v is no smaller than the occupied box %v", pocket.Name, i, cone.in, union.in)
			}
			for s, u := range stages(union) {
				if c := stages(cone)[s]; c.Intersect(u) != c || c == u {
					t.Fatalf("%s pose %d stage %d: cone box %v is not strictly inside the union box %v", pocket.Name, i, s, c, u)
				}
			}
		}
	}
}

// TestResponseRebuiltAfterOptimizerStep pins that a baseline response
// never outlives the weights it was built from: after an optimizer
// step on one conv bias, the next cone batch rebuilds the response and
// scores bitwise like a fresh model holding the same weights, at both
// widths.
func TestResponseRebuiltAfterOptimizerStep(t *testing.T) {
	vo := featurize.VoxelOptions{GridSize: 32, Resolution: 4.0, Sigma: 0.8}
	cfg := tinyCNNConfig()
	cfg.Voxel = vo
	m := NewCNN3D(cfg, 9)
	samples := coneTestSamples(rand.New(rand.NewSource(9)), target.Spike1, vo, featurize.DefaultGraphOptions())
	score := func(m *CNN3D, p Precision) []float64 {
		out := make([]float64, len(samples))
		m.PredictBatchInto(samples, NewWorkspaceFor(p), out)
		return out
	}
	precisions := []Precision{PrecisionF64, PrecisionF32}
	var before [2][]float64
	for i, p := range precisions {
		before[i] = score(m, p)
	}

	b := m.conv2.B
	fill(b.Grad, 1)
	nn.NewAdam([]*nn.Param{b}, 0.05).Step()
	fresh := NewCNN3D(cfg, 10)
	if err := nn.CopyParams(fresh.Params(), m.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range precisions {
		builds := ResponseBuilds()
		got := score(m, p)
		if ResponseBuilds() == builds {
			t.Fatalf("%s: the batch after an optimizer step built no response", p)
		}
		moved := false
		for j, want := range score(fresh, p) {
			if math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Fatalf("%s sample %s: stepped model %v, fresh model with its weights %v", p, samples[j].ID, got[j], want)
			}
			moved = moved || got[j] != before[i][j]
		}
		if !moved {
			t.Fatalf("%s: no score moved after the step; the test exercises nothing", p)
		}
	}
}

// TestDroppedPrefeatureIsCollectable pins the baseline response's
// lifetime: it hangs off the prefeature it was built over, so a
// prefeature its caller drops is collected while the model that scored
// against it lives on.
func TestDroppedPrefeatureIsCollectable(t *testing.T) {
	vo := featurize.VoxelOptions{GridSize: 32, Resolution: 4.0, Sigma: 0.8}
	cfg := tinyCNNConfig()
	cfg.Voxel = vo
	m := NewCNN3D(cfg, 12)
	collected := make(chan struct{})
	func() {
		pre := featurize.NewPocketPrefeature(target.Protease1, vo, featurize.DefaultGraphOptions())
		runtime.AddCleanup(pre, func(ch chan struct{}) { close(ch) }, collected)
		mol := boxTestPoses(rand.New(rand.NewSource(12)), target.Protease1, 1)[0]
		batch := []*Sample{FeaturizeComplexWithPrefeature(nil, pre, "pose", mol, 0)}
		builds := ResponseBuilds()
		m.PredictBatchInto(batch, NewWorkspaceFor(PrecisionF32), make([]float64, 1))
		if ResponseBuilds() == builds {
			t.Fatal("scoring built no baseline response; the test exercises nothing")
		}
	}()
	for range 50 {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(m)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped prefeature was not collected while the model lives")
}
