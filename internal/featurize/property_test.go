package featurize

// Property-based tests (testing/quick) for the featurizers: voxel mass
// conservation under 90-degree rotations, non-negativity, and
// the structural contracts of the spatial graph builder.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
)

// randomLigand places a small random chain molecule near the pocket
// centre so every atom stays well inside the voxel box.
func randomLigand(rng *rand.Rand, maxR float64) *chem.Mol {
	n := 4 + rng.Intn(10)
	m := &chem.Mol{Name: "prop"}
	symbols := []string{"C", "N", "O", "S", "F"}
	for i := 0; i < n; i++ {
		m.Atoms = append(m.Atoms, chem.Atom{
			Symbol: symbols[rng.Intn(len(symbols))],
			Pos: chem.Vec3{
				X: (rng.Float64()*2 - 1) * maxR,
				Y: (rng.Float64()*2 - 1) * maxR,
				Z: (rng.Float64()*2 - 1) * maxR,
			},
		})
		if i > 0 {
			m.Bonds = append(m.Bonds, chem.Bond{A: i - 1, B: i, Order: 1})
		}
	}
	return m
}

func TestVoxelizeChannelSignProperty(t *testing.T) {
	// Every channel is a splat of non-negative indicators except the
	// two formal-charge channels (ligand channel 7, protein channel
	// 7+FeatureChannels), which carry signed values. All voxels finite.
	p := target.Protease1
	o := DefaultVoxelOptions()
	chargeLig, chargeProt := chem.FeatureChannels-1, 2*chem.FeatureChannels-1
	check := func(seed int64) bool {
		m := randomLigand(rand.New(rand.NewSource(seed)), 8)
		v := Voxelize(p, m, o)
		vox := o.GridSize * o.GridSize * o.GridSize
		for i, val := range v.Data {
			if math.IsNaN(val) || math.IsInf(val, 0) {
				return false
			}
			ch := i / vox
			if ch != chargeLig && ch != chargeProt && val < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVoxelizeMassInvariantUnderRotate90(t *testing.T) {
	// A 90-degree rotation about the origin maps the (origin-centred)
	// voxel cube onto itself, so the total splatted density must be
	// conserved for ligands that stay inside the box.
	p := target.Spike1
	o := DefaultVoxelOptions()
	inner := float64(o.GridSize)/2*o.Resolution - 2*o.Resolution
	check := func(seed int64, axisPick uint) bool {
		m := randomLigand(rand.New(rand.NewSource(seed)), inner)
		before := Voxelize(p, m, o).Sum()
		r := m.Clone()
		rotate90(r, axisPick%3)
		after := Voxelize(p, r, o).Sum()
		return math.Abs(before-after) < 1e-6*(1+math.Abs(before))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// rotate90 rotates m's coordinates in place by 90 degrees about the
// X (0), Y (1) or Z (2) axis through the origin.
func rotate90(m *chem.Mol, axis uint) {
	for i := range m.Atoms {
		p := m.Atoms[i].Pos
		switch axis {
		case 0:
			m.Atoms[i].Pos = chem.Vec3{X: p.X, Y: -p.Z, Z: p.Y}
		case 1:
			m.Atoms[i].Pos = chem.Vec3{X: p.Z, Y: p.Y, Z: -p.X}
		default:
			m.Atoms[i].Pos = chem.Vec3{X: -p.Y, Y: p.X, Z: p.Z}
		}
	}
}

func TestBuildGraphStructuralContracts(t *testing.T) {
	// For random ligands and random K/threshold settings:
	//   - every edge references a valid node,
	//   - the pocket nodes are exactly the pocket atoms some edge reads,
	//     in ascending pocket index, each with its atom's feature row
	//     (pocketSources),
	//   - covalent edges stay among ligand nodes and within threshold,
	//   - non-covalent in-degree respects the K cap per receiving
	//     ligand node (edges point neighbor -> ligand node),
	//   - non-covalent edges respect the distance threshold.
	p := target.Protease2
	check := func(seed int64, kPick, tPick uint) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomLigand(rng, 8)
		o := GraphOptions{
			CovK:            2 + int(kPick%7),
			NonCovK:         2 + int((kPick/7)%7),
			CovThreshold:    1.2 + float64(tPick%48)*0.1,
			NonCovThreshold: 1.2 + float64((tPick/48)%48)*0.1,
		}
		g := BuildGraph(p, m, o)
		n := g.NumNodes()
		if _, err := pocketSources(g, p, m); err != nil {
			t.Log(err)
			return false
		}
		for _, e := range g.Covalent {
			if e.From < 0 || e.From >= g.NumLigand || e.To < 0 || e.To >= g.NumLigand {
				return false
			}
			if e.Dist > o.CovThreshold+1e-9 {
				return false
			}
		}
		inDeg := make(map[int]int)
		for _, e := range g.NonCov {
			if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
				return false
			}
			if e.Dist > o.NonCovThreshold+1e-9 {
				return false
			}
			if e.To >= g.NumLigand {
				return false // messages flow into ligand nodes only
			}
			inDeg[e.To]++
		}
		for _, d := range inDeg {
			if d > o.NonCovK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVoxelizeDeterministicProperty(t *testing.T) {
	p := target.Spike2
	o := DefaultVoxelOptions()
	check := func(seed int64) bool {
		m := randomLigand(rand.New(rand.NewSource(seed)), 8)
		a := Voxelize(p, m, o)
		b := Voxelize(p, m, o)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperVoxelOptionsUsableEndToEnd(t *testing.T) {
	// The paper-scale grid must satisfy the 3D-CNN's divisibility
	// constraint (two 2x pooling stages) and voxelize a real complex.
	o := PaperVoxelOptions()
	if o.GridSize%4 != 0 {
		t.Fatalf("paper grid %d not divisible by 4", o.GridSize)
	}
	m := randomLigand(rand.New(rand.NewSource(1)), 10)
	v := Voxelize(target.Protease1, m, o)
	wantLen := o.Channels() * o.GridSize * o.GridSize * o.GridSize
	if v.Len() != wantLen {
		t.Fatalf("paper-scale tensor has %d elements, want %d", v.Len(), wantLen)
	}
	if v.Sum() <= 0 {
		t.Fatal("paper-scale voxelization produced an empty grid")
	}
}
