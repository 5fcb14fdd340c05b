package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepfusion/internal/chem"
	"deepfusion/internal/featurize"
	"deepfusion/internal/libgen"
	"deepfusion/internal/nn"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// refForward is the whole-grid forward of the voxel head at width T
// that the box path must reproduce bit for bit: the full [B,C,G,G,G]
// batch through the public whole-grid layer kernels, stage for stage,
// nothing boxed.
func refForward[T tensor.Float](m *CNN3D, samples []*Sample, ws *nn.Workspace) []T {
	s0 := samples[0].Voxels
	x := nn.Arena[T](ws).GetUninit(len(samples), s0.Dim(0), s0.Dim(1), s0.Dim(2), s0.Dim(3))
	per := s0.Len()
	for i, s := range samples {
		tensor.Convert(x.Data[i*per:(i+1)*per], s.Voxels.Data)
	}
	h := nn.Infer(m.act[0], nn.Infer(m.conv1, x, ws), ws)
	h2 := nn.Infer(m.act[1], nn.Infer(m.conv2, h, ws), ws)
	if m.Cfg.Residual1 {
		h2 = addInfer(ws, h2, h)
	}
	h2 = nn.Infer(m.pool1, h2, ws)
	h3 := nn.Infer(m.act[2], nn.Infer(m.conv3, h2, ws), ws)
	h4 := nn.Infer(m.act[3], nn.Infer(m.conv4, h3, ws), ws)
	if m.Cfg.Residual2 {
		h4 = addInfer(ws, h4, h3)
	}
	h4 = nn.Infer(m.pool2, h4, ws)
	f := nn.Infer(m.flat, h4, ws)
	d1 := nn.Infer(m.fc1, f, ws)
	if m.bn != nil {
		d1 = nn.Infer(m.bn, d1, ws)
	}
	d1 = nn.Infer(m.act[4], d1, ws)
	latent := nn.Infer(m.act[5], nn.Infer(m.fc2, d1, ws), ws)
	return nn.Infer(m.out, latent, ws).Data
}

// boxTestPoses places count library compounds in the pocket, each
// jittered so their occupied boxes differ.
func boxTestPoses(rng *rand.Rand, p *target.Pocket, count int) []*chem.Mol {
	var mols []*chem.Mol
	for i := rng.Intn(50); len(mols) < count; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		p.PlaceLigand(m)
		translate(m, chem.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()})
		mols = append(mols, m)
	}
	return mols
}

// setConvBiases rewrites every convolution bias of m — a fresh model's
// are zero, a trained model's are not — through Update, which drops
// what was compiled from them.
func setConvBiases(m *CNN3D, set func(b *tensor.Tensor)) {
	for _, c := range []*nn.Conv3D{m.conv1, m.conv2, m.conv3, m.conv4} {
		c.B.Update(func([]float64) { set(c.B.Value) })
	}
}

func translate(m *chem.Mol, d chem.Vec3) {
	for i := range m.Atoms {
		p := m.Atoms[i].Pos
		m.Atoms[i].Pos = chem.Vec3{X: p.X + d.X, Y: p.Y + d.Y, Z: p.Z + d.Z}
	}
}

// TestBoxPathBitIdentity is the property that lets the voxel head skip
// most of the grid: whatever the batch's active box — the whole grid, a
// small interior box, a box cut by the grid border, samples with
// different boxes in one batch, with or without slot state — the pooled
// scores equal the whole-grid reference bitwise at both precisions, for
// zero and non-zero conv biases and with the residual connections on
// and off. Two batches per case: a mixed one, which takes the union of
// the occupied boxes over the empty-grid response, and one whose
// samples all share a prefeature, which takes the ligands' cone over
// the baseline response. The reference at each width is refForward.
func TestBoxPathBitIdentity(t *testing.T) {
	grids := []featurize.VoxelOptions{
		{GridSize: 8, Resolution: 3.0, Sigma: 0.8},  // fully occupied: every box is the grid
		{GridSize: 16, Resolution: 2.0, Sigma: 0.8}, // interior box
		{GridSize: 24, Resolution: 1.0, Sigma: 1.0}, // box reaches most borders
		{GridSize: 32, Resolution: 4.0, Sigma: 0.8}, // small box: a strict part of the grid at every stage
		{GridSize: 48, Resolution: 1.0, Sigma: 1.0}, // the paper's grid: the cone is a small part of the union
	}
	gro := featurize.DefaultGraphOptions()
	seed := int64(0)
	for _, vo := range grids {
		for pi, pocket := range target.All() {
			for ci := 0; ci < 4; ci++ {
				// The repro grid takes the full cross product; the larger
				// ones (a dense whole-grid reference is seconds of work)
				// give each pocket one of the four combinations, and the
				// paper's grid runs one case on one pocket.
				skip := vo.GridSize > 8 && ci != pi
				if vo.GridSize == 48 {
					skip = pi != 0 || ci != 3 // one case: biased, residuals on
				}
				if skip {
					continue
				}
				biased, residual := ci&1 != 0, ci&2 != 0
				seed++
				name := fmt.Sprintf("g%d@%g/%s/biased=%v/residual=%v", vo.GridSize, vo.Resolution, pocket.Name, biased, residual)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					cfg := tinyCNNConfig()
					cfg.Voxel = vo
					cfg.ConvFilters1, cfg.ConvFilters2 = 3+rng.Intn(6), 8
					cfg.Residual1, cfg.Residual2 = residual, residual
					cfg.BatchNorm = rng.Intn(2) == 0
					m := NewCNN3D(cfg, seed)
					if biased {
						setConvBiases(m, func(b *tensor.Tensor) { randNormal(b, rng, 0.3) })
					}
					checkBoxPath(t, m, boxTestSamples(rng, pocket, vo, gro))
					cone := coneTestSamples(rng, pocket, vo, gro)
					if _, pf := m.plan(cone); pf == nil {
						t.Fatal("a batch sharing one prefeature did not take the cone plan")
					}
					checkBoxPath(t, m, cone)
				})
			}
		}
	}
}

// boxTestSamples builds a batch whose samples have different occupied
// boxes and different provenance: prefeature-rendered slots (box from
// the slot state), a recycled slot, FeaturizeComplex samples (box from
// a grid scan), and ligands pushed until their box touches and then
// crosses the grid border.
func boxTestSamples(rng *rand.Rand, pocket *target.Pocket, vo featurize.VoxelOptions, gro featurize.GraphOptions) []*Sample {
	pre := featurize.NewPocketPrefeature(pocket, vo, gro)
	mols := boxTestPoses(rng, pocket, 6)
	extent := float64(vo.GridSize) * vo.Resolution / 2
	touching, crossing := mols[4], mols[5]
	translate(touching, chem.Vec3{X: extent - 2*vo.Resolution})
	translate(crossing, chem.Vec3{Y: -extent, Z: extent + vo.Resolution})

	recycled := FeaturizeComplexWithPrefeature(nil, pre, "first", mols[0], 0)
	return []*Sample{
		FeaturizeComplexWithPrefeature(recycled, pre, "recycled", mols[1], 0),
		FeaturizeComplexWithPrefeature(nil, pre, "slot", mols[2], 0),
		FeaturizeComplex("scan", pocket, mols[3], 0, vo, gro),
		FeaturizeComplexWithPrefeature(nil, pre, "touching", touching, 0),
		FeaturizeComplex("crossing", pocket, crossing, 0, vo, gro),
	}
}

// coneTestSamples builds a batch whose samples all carry slot state
// from one prefeature, so every batch of them takes the cone plan: a
// recycled slot, a fresh slot, ligands whose box touches the grid
// border, crosses it, and lies entirely outside the grid (an empty
// ligand box: that sample scores the baseline response itself).
func coneTestSamples(rng *rand.Rand, pocket *target.Pocket, vo featurize.VoxelOptions, gro featurize.GraphOptions) []*Sample {
	pre := featurize.NewPocketPrefeature(pocket, vo, gro)
	mols := boxTestPoses(rng, pocket, 6)
	extent := float64(vo.GridSize) * vo.Resolution / 2
	translate(mols[3], chem.Vec3{X: extent - 2*vo.Resolution})
	translate(mols[4], chem.Vec3{Y: -extent, Z: extent + vo.Resolution})
	translate(mols[5], chem.Vec3{X: 1000})

	recycled := FeaturizeComplexWithPrefeature(nil, pre, "first", mols[0], 0)
	samples := []*Sample{
		FeaturizeComplexWithPrefeature(recycled, pre, "recycled", mols[1], 0),
		FeaturizeComplexWithPrefeature(nil, pre, "fresh", mols[2], 0),
		FeaturizeComplexWithPrefeature(nil, pre, "touching", mols[3], 0),
		FeaturizeComplexWithPrefeature(nil, pre, "crossing", mols[4], 0),
		FeaturizeComplexWithPrefeature(nil, pre, "outside", mols[5], 0),
	}
	if _, box := samples[4].voxState.Ligand(); !box.Empty() {
		panic(fmt.Sprintf("ligand moved outside the grid has box %v", box))
	}
	return samples
}

// checkBoxPath scores the samples in pairs (with a single left over)
// and all together, and compares bitwise with the whole-grid
// references.
func checkBoxPath(t *testing.T, m *CNN3D, samples []*Sample) {
	t.Helper()
	ws64, ws32 := NewWorkspaceFor(PrecisionF64), NewWorkspaceFor(PrecisionF32)
	ref := nn.NewWorkspace()
	for _, bs := range []int{2, len(samples)} {
		for lo := 0; lo < len(samples); lo += bs {
			batch := samples[lo:min(lo+bs, len(samples))]
			got := make([]float64, len(batch))

			m.PredictBatchInto(batch, ws64, got)
			ref.Reset()
			for j, want := range refForward[float64](m, batch, ref) {
				if math.Float64bits(got[j]) != math.Float64bits(want) {
					t.Fatalf("f64 batch %d sample %s: box path %v != whole-grid %v", bs, batch[j].ID, got[j], want)
				}
			}

			m.PredictBatchInto(batch, ws32, got)
			ref.Reset()
			for j, want := range refForward[float32](m, batch, ref) {
				if math.Float32bits(float32(got[j])) != math.Float32bits(want) || float64(want) != got[j] {
					t.Fatalf("f32 batch %d sample %s: box path %v != whole-grid %v", bs, batch[j].ID, got[j], want)
				}
			}
		}
	}
}

// TestBoxPathCoversLessThanTheGrid pins that the property test above
// exercises what it claims: on the mostly empty grid the active box is
// a strict part of the grid at every stage, on the repro grid it is the
// whole grid, and a ligand outside the grid adds nothing to the box.
func TestBoxPathCoversLessThanTheGrid(t *testing.T) {
	gro := featurize.DefaultGraphOptions()
	plan := func(vo featurize.VoxelOptions, shift float64) boxPlan {
		cfg := tinyCNNConfig()
		cfg.Voxel = vo
		m := NewCNN3D(cfg, 1)
		mol, err := libgen.ZINC.Mol(3)
		if err != nil {
			t.Fatal(err)
		}
		target.Protease1.PlaceLigand(mol)
		translate(mol, chem.Vec3{X: shift})
		pre := featurize.NewPocketPrefeature(target.Protease1, vo, gro)
		s := FeaturizeComplexWithPrefeature(nil, pre, "x", mol, 0)
		if scan := featurize.OccupiedBox(s.Voxels); s.occupiedBox().Intersect(scan) != scan {
			t.Fatalf("slot-state box %v misses occupied voxels %v", s.occupiedBox(), scan)
		}
		return m.planBoxes(m.batchBox([]*Sample{s}))
	}

	sparse := featurize.VoxelOptions{GridSize: 32, Resolution: 4.0, Sigma: 0.8}
	p := plan(sparse, 0)
	full, half, quarter := tensor.GridBox(32, 32, 32), tensor.GridBox(16, 16, 16), tensor.GridBox(8, 8, 8)
	if p.c2.Volume() >= full.Volume()/4 || p.c4.Volume() >= half.Volume()/2 || p.flat.Volume() >= quarter.Volume() {
		t.Fatalf("sparse grid: active boxes %+v are not a small part of the grid", p)
	}
	if far := plan(sparse, 1000); far.in != p.in.Intersect(far.in) || far.in.Empty() {
		t.Fatalf("ligand outside the grid changed the box: %v vs pocket-only part of %v", far.in, p.in)
	}

	p = plan(featurize.DefaultVoxelOptions(), 0)
	if g := tensor.GridBox(8, 8, 8); p.in != g || p.c1 != g || p.c2 != g {
		t.Fatalf("repro grid: active boxes %+v, want the whole grid", p)
	}
}

// TestEmptyGridSample scores a sample whose grid is entirely zero (no
// pocket atom and no ligand atom inside the grid): nothing is occupied,
// every box is empty, and the score is the model's empty-grid response
// — bitwise the whole-grid result.
func TestEmptyGridSample(t *testing.T) {
	vo := featurize.VoxelOptions{GridSize: 8, Resolution: 0.01, Sigma: 0.8}
	gro := featurize.DefaultGraphOptions()
	mol, err := libgen.ZINC.Mol(0)
	if err != nil {
		t.Fatal(err)
	}
	target.Spike1.PlaceLigand(mol)
	translate(mol, chem.Vec3{X: 50})
	s := FeaturizeComplex("empty", target.Spike1, mol, 0, vo, gro)
	if b := featurize.OccupiedBox(s.Voxels); !b.Empty() {
		t.Skipf("grid is not empty (occupied %v); the geometry of this test needs updating", b)
	}
	for _, biased := range []bool{false, true} {
		cfg := tinyCNNConfig()
		cfg.Voxel = vo
		m := NewCNN3D(cfg, 5)
		if biased {
			setConvBiases(m, func(b *tensor.Tensor) { fill(b, 0.25) })
		}
		checkBoxPath(t, m, []*Sample{s})
	}
}
