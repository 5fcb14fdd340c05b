package featurize

import (
	"math"
	"math/rand"
	"testing"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
)

func mustMol(t *testing.T, s string) *chem.Mol {
	t.Helper()
	m, err := chem.ParseSMILES(s)
	if err != nil {
		t.Fatal(err)
	}
	chem.Embed3D(m, 3)
	return m
}

func TestVoxelizeShape(t *testing.T) {
	o := DefaultVoxelOptions()
	m := mustMol(t, "CCO")
	target.Protease1.PlaceLigand(m)
	v := Voxelize(target.Protease1, m, o)
	want := []int{o.Channels(), o.GridSize, o.GridSize, o.GridSize}
	for i, d := range want {
		if v.Dim(i) != d {
			t.Fatalf("shape %v, want %v", v.Shape, want)
		}
	}
}

func TestVoxelizeLigandAndProteinChannels(t *testing.T) {
	o := DefaultVoxelOptions()
	m := mustMol(t, "CCCC")
	target.Spike1.PlaceLigand(m)
	v := Voxelize(target.Spike1, m, o)
	n := o.GridSize
	ligandMass, proteinMass := 0.0, 0.0
	voxPerChan := n * n * n
	for c := 0; c < chem.FeatureChannels; c++ {
		for i := 0; i < voxPerChan; i++ {
			ligandMass += math.Abs(v.Data[c*voxPerChan+i])
			proteinMass += math.Abs(v.Data[(c+chem.FeatureChannels)*voxPerChan+i])
		}
	}
	if ligandMass == 0 {
		t.Fatal("no ligand density rendered")
	}
	if proteinMass == 0 {
		t.Fatal("no protein density rendered")
	}
}

func TestVoxelizeOutOfBoxAtomsDropped(t *testing.T) {
	o := DefaultVoxelOptions()
	m := mustMol(t, "C")
	m.Atoms[0].Pos = chem.Vec3{X: 1000}
	v := Voxelize(target.Spike1, m, o)
	n := o.GridSize
	voxPerChan := n * n * n
	// Ligand channels must be empty; protein channels still populated.
	for c := 0; c < chem.FeatureChannels; c++ {
		for i := 0; i < voxPerChan; i++ {
			if v.Data[c*voxPerChan+i] != 0 {
				t.Fatal("out-of-box atom leaked into the grid")
			}
		}
	}
}

func TestVoxelizeCenteredAtomLands(t *testing.T) {
	o := VoxelOptions{GridSize: 8, Resolution: 3.0, Sigma: 0.8}
	m := &chem.Mol{Atoms: []chem.Atom{{Symbol: "C", Pos: chem.Vec3{}}}}
	v := Voxelize(target.Spike1, m, o)
	// Channel 0 (carbon/hydrophobic) should have mass near the center.
	n := o.GridSize
	c := n / 2
	centerMass := 0.0
	for dx := -1; dx <= 0; dx++ {
		for dy := -1; dy <= 0; dy++ {
			for dz := -1; dz <= 0; dz++ {
				centerMass += v.At(0, c+dx, c+dy, c+dz)
			}
		}
	}
	if centerMass <= 0 {
		t.Fatal("centered atom produced no central density")
	}
}

func TestRotate90Preserves(t *testing.T) {
	m := mustMol(t, "CC(=O)O")
	orig := m.Clone()
	// Four rotations about the same axis restore coordinates.
	for i := 0; i < 4; i++ {
		Rotate90(m, AxisZ)
	}
	for i := range m.Atoms {
		d := m.Atoms[i].Pos.Dist(orig.Atoms[i].Pos)
		if d > 1e-12 {
			t.Fatalf("atom %d moved by %v after 4 rotations", i, d)
		}
	}
	// Rotation preserves pairwise distances.
	Rotate90(m, AxisX)
	for i := range m.Atoms {
		for j := i + 1; j < len(m.Atoms); j++ {
			a := m.Atoms[i].Pos.Dist(m.Atoms[j].Pos)
			b := orig.Atoms[i].Pos.Dist(orig.Atoms[j].Pos)
			if math.Abs(a-b) > 1e-9 {
				t.Fatal("rotation distorted geometry")
			}
		}
	}
}

func TestRandomRotateDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mustMol(t, "CCCCC")
	orig := m.Clone()
	for i := 0; i < 50; i++ {
		RandomRotate(m, rng)
	}
	for i := range m.Atoms {
		if m.Atoms[i].Pos != orig.Atoms[i].Pos {
			t.Fatal("RandomRotate mutated its input")
		}
	}
}

func TestRandomRotateRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := mustMol(t, "CCN")
	changed := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		r := RandomRotate(m, rng)
		if r.Atoms[0].Pos != m.Atoms[0].Pos {
			changed++
		}
	}
	// P(any rotation) = 1 - 0.9^3 ~ 27.1%
	rate := float64(changed) / trials
	if rate < 0.20 || rate < 0.001 || rate > 0.35 {
		t.Fatalf("rotation rate %v, want ~0.27", rate)
	}
}

func TestBuildGraphNodeLayout(t *testing.T) {
	o := DefaultGraphOptions()
	m := mustMol(t, "CCO")
	target.Spike1.PlaceLigand(m)
	g := BuildGraph(target.Spike1, m, o)
	if g.NumLigand != 3 {
		t.Fatalf("NumLigand = %d", g.NumLigand)
	}
	if _, err := pocketSources(g, target.Spike1, m); err != nil {
		t.Fatal(err)
	}
	// Ligand flag set on first nodes only.
	for i := 0; i < g.NumNodes(); i++ {
		flag := g.Nodes.At(i, chem.FeatureChannels)
		if (i < 3) != (flag == 1) {
			t.Fatalf("node %d ligand flag = %v", i, flag)
		}
	}
}

func TestBuildGraphCovalentEdges(t *testing.T) {
	o := DefaultGraphOptions()
	m := mustMol(t, "CCO")
	target.Spike1.PlaceLigand(m)
	g := BuildGraph(target.Spike1, m, o)
	if len(g.Covalent) != 4 { // 2 bonds, both directions
		t.Fatalf("covalent edges = %d, want 4", len(g.Covalent))
	}
	for _, e := range g.Covalent {
		if e.From >= g.NumLigand || e.To >= g.NumLigand {
			t.Fatal("covalent edge touches protein node")
		}
		if e.Dist > o.CovThreshold {
			t.Fatalf("covalent edge distance %v exceeds threshold", e.Dist)
		}
	}
}

func TestBuildGraphNonCovalentEdges(t *testing.T) {
	o := DefaultGraphOptions()
	m := mustMol(t, "c1ccccc1CCN")
	target.Spike1.PlaceLigand(m)
	g := BuildGraph(target.Spike1, m, o)
	if len(g.NonCov) == 0 {
		t.Fatal("no non-covalent edges in a posed complex")
	}
	perNode := map[int]int{}
	for _, e := range g.NonCov {
		if e.To >= g.NumLigand {
			t.Fatal("non-covalent edges must terminate on ligand atoms")
		}
		if e.Dist > o.NonCovThreshold {
			t.Fatalf("non-covalent distance %v exceeds threshold", e.Dist)
		}
		perNode[e.To]++
	}
	for node, k := range perNode {
		if k > o.NonCovK {
			t.Fatalf("node %d has %d non-covalent edges, cap %d", node, k, o.NonCovK)
		}
	}
}

func TestBuildGraphKCap(t *testing.T) {
	o := GraphOptions{CovK: 1, NonCovK: 1, CovThreshold: 3, NonCovThreshold: 8}
	m := mustMol(t, "CC(C)(C)C")
	target.Spike1.PlaceLigand(m)
	g := BuildGraph(target.Spike1, m, o)
	perNode := map[int]int{}
	for _, e := range g.Covalent {
		perNode[e.To]++
	}
	for node, k := range perNode {
		if k > 1 {
			t.Fatalf("node %d has %d covalent edges with K=1", node, k)
		}
	}
}

func TestBuildGraphExcludesBondedFromNonCov(t *testing.T) {
	o := DefaultGraphOptions()
	m := mustMol(t, "CCO")
	target.Spike1.PlaceLigand(m)
	g := BuildGraph(target.Spike1, m, o)
	bonded := map[[2]int]bool{}
	for _, b := range m.Bonds {
		bonded[[2]int{b.A, b.B}] = true
		bonded[[2]int{b.B, b.A}] = true
	}
	for _, e := range g.NonCov {
		if e.From < g.NumLigand && bonded[[2]int{e.From, e.To}] {
			t.Fatal("bonded pair appeared as non-covalent edge")
		}
	}
}
