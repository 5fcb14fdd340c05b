package featurize

// Golden and property tests for the target-invariant prefeature cache:
// the cached path must be byte-identical to Voxelize/BuildGraph —
// across option scales, across recycled slots, and across different
// targets interleaved through one slot — and the cell-list K-NN must
// select exactly the brute-force neighbors on arbitrary poses.

import (
	"fmt"
	"math/rand"
	"testing"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// assertVoxelsEqual compares two grids bit-for-bit.
func assertVoxelsEqual(t *testing.T, ctx string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: grid size %d != %d", ctx, got.Len(), want.Len())
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: voxel %d: cached %v != uncached %v", ctx, i, got.Data[i], want.Data[i])
		}
	}
}

// assertGraphsEqual compares two graphs bit-for-bit: node features and
// both edge lists, including distances and order.
func assertGraphsEqual(t *testing.T, ctx string, got, want *Graph) {
	t.Helper()
	if got.NumLigand != want.NumLigand || got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: geometry %d/%d nodes, want %d/%d",
			ctx, got.NumLigand, got.NumNodes(), want.NumLigand, want.NumNodes())
	}
	for i := range want.Nodes.Data {
		if got.Nodes.Data[i] != want.Nodes.Data[i] {
			t.Fatalf("%s: node feature %d: cached %v != uncached %v",
				ctx, i, got.Nodes.Data[i], want.Nodes.Data[i])
		}
	}
	if len(got.Covalent) != len(want.Covalent) || len(got.NonCov) != len(want.NonCov) {
		t.Fatalf("%s: edge counts %d/%d, want %d/%d",
			ctx, len(got.Covalent), len(got.NonCov), len(want.Covalent), len(want.NonCov))
	}
	for i, e := range want.Covalent {
		if got.Covalent[i] != e {
			t.Fatalf("%s: covalent edge %d: cached %+v != uncached %+v", ctx, i, got.Covalent[i], e)
		}
	}
	for i, e := range want.NonCov {
		if got.NonCov[i] != e {
			t.Fatalf("%s: non-covalent edge %d: cached %+v != uncached %+v", ctx, i, got.NonCov[i], e)
		}
	}
}

// TestPrefeatureByteIdenticalAcrossScales pins the tentpole contract
// at both option scales: the prefeature-cached voxelizer and graph
// builder produce bytes identical to the uncached path, including
// through recycled (dirty) slots.
func TestPrefeatureByteIdenticalAcrossScales(t *testing.T) {
	mols := []*chem.Mol{
		mustMol(t, "CCO"),
		mustMol(t, "c1ccccc1"),
		mustMol(t, "CCN(CC)CCNC(=O)c1ccccc1"),
		mustMol(t, "CC(C)Cc1ccc(cc1)C(C)C(=O)O"),
	}
	for _, m := range mols {
		target.Protease1.PlaceLigand(m)
	}
	scales := []struct {
		name string
		vo   VoxelOptions
	}{
		{"repro", DefaultVoxelOptions()},
		{"paper", PaperVoxelOptions()},
	}
	gro := DefaultGraphOptions()
	for _, sc := range scales {
		t.Run(sc.name, func(t *testing.T) {
			pf := NewPocketPrefeature(target.Protease1, sc.vo, gro)
			var (
				vslot *tensor.Tensor
				state VoxelSlotState
				gslot *Graph
			)
			// Two passes over the molecule set: the second pass
			// exercises fully warm, dirty slots.
			for pass := 0; pass < 2; pass++ {
				for mi, m := range mols {
					ctx := fmt.Sprintf("pass %d mol %d", pass, mi)
					vslot = pf.VoxelizeInto(vslot, &state, m)
					assertVoxelsEqual(t, ctx, vslot, Voxelize(target.Protease1, m, sc.vo))
					// The slot state bounds the grid's occupancy without
					// scanning it.
					box, ok := state.OccupiedBox()
					if scan := OccupiedBox(vslot); !ok || box.Intersect(scan) != scan {
						t.Fatalf("%s: slot-state box %v (ok=%v) misses occupied voxels %v", ctx, box, ok, scan)
					}
					if n := sc.vo.GridSize; sc.name == "paper" && box.Volume()*8 > n*n*n {
						t.Fatalf("%s: occupied box %v is %d of %d voxels, want a small part of the paper grid", ctx, box, box.Volume(), n*n*n)
					}
					gslot = pf.BuildGraphInto(gslot, m)
					assertGraphsEqual(t, ctx, gslot, BuildGraph(target.Protease1, m, gro))
				}
			}
			// A nil slot state must still be correct (full baseline copy
			// per call).
			out := pf.VoxelizeInto(nil, nil, mols[0])
			assertVoxelsEqual(t, "nil state", out, Voxelize(target.Protease1, mols[0], sc.vo))
			if _, ok := new(VoxelSlotState).OccupiedBox(); ok {
				t.Fatal("a slot state that rendered nothing claims to know the grid's occupancy")
			}
		})
	}
}

// TestPrefeatureInterleavedTargetsNoLeakage drives one recycled slot
// alternately through two different targets' prefeatures — the shape
// of a loader fed interleaved jobs — and checks every pose against the
// uncached path. A stale baseline or touched-voxel list from the other
// target would show up immediately.
func TestPrefeatureInterleavedTargetsNoLeakage(t *testing.T) {
	vo := DefaultVoxelOptions()
	gro := DefaultGraphOptions()
	pfA := NewPocketPrefeature(target.Protease1, vo, gro)
	pfB := NewPocketPrefeature(target.Spike1, vo, gro)
	m1 := mustMol(t, "CCN(CC)CCNC(=O)c1ccccc1")
	m2 := mustMol(t, "CCO")
	target.Protease1.PlaceLigand(m1)
	target.Protease1.PlaceLigand(m2)

	var (
		vslot *tensor.Tensor
		state VoxelSlotState
		gslot *Graph
	)
	seq := []struct {
		pf  *PocketPrefeature
		tgt *target.Pocket
		m   *chem.Mol
	}{
		{pfA, target.Protease1, m1},
		{pfB, target.Spike1, m1},
		{pfB, target.Spike1, m2},
		{pfA, target.Protease1, m2},
		{pfA, target.Protease1, m1},
		{pfB, target.Spike1, m1},
	}
	for i, s := range seq {
		ctx := fmt.Sprintf("step %d (%s)", i, s.tgt.Name)
		vslot = s.pf.VoxelizeInto(vslot, &state, s.m)
		assertVoxelsEqual(t, ctx, vslot, Voxelize(s.tgt, s.m, vo))
		gslot = s.pf.BuildGraphInto(gslot, s.m)
		assertGraphsEqual(t, ctx, gslot, BuildGraph(s.tgt, s.m, gro))
	}
}

// TestCellListKNNMatchesBruteForce is the property test of the
// neighbor search: on randomized poses — including atoms far outside
// the pocket box — the cell-list K-NN selects exactly the brute-force
// neighbors, in the same order, at several cutoffs.
func TestCellListKNNMatchesBruteForce(t *testing.T) {
	pockets := target.All()
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := pockets[int(seed)%len(pockets)]
		// Spread ligand atoms from deep inside the pocket to well
		// outside the cell grid.
		m := randomLigand(rng, 4+rng.Float64()*20)
		gro := DefaultGraphOptions()
		gro.NonCovThreshold = []float64{1.5, 5.22, 12}[int(seed)%3]
		gro.NonCovK = 1 + int(seed)%5
		pf := NewPocketPrefeature(p, DefaultVoxelOptions(), gro)
		got := pf.BuildGraphInto(nil, m)
		want := BuildGraph(p, m, gro)
		assertGraphsEqual(t, fmt.Sprintf("seed %d pocket %s", seed, p.Name), got, want)
	}
}

// symmetricPocket puts six pseudo-atoms at exactly distance r along
// the coordinate axes — every pair of opposite atoms is equidistant
// from the origin, so K-NN ties are guaranteed.
func symmetricPocket(r float64) *target.Pocket {
	return &target.Pocket{
		Name: "sym",
		Atoms: []target.PocketAtom{
			{Pos: chem.Vec3{X: r}},
			{Pos: chem.Vec3{X: -r}},
			{Pos: chem.Vec3{Y: r}},
			{Pos: chem.Vec3{Y: -r}},
			{Pos: chem.Vec3{Z: r}},
			{Pos: chem.Vec3{Z: -r}},
		},
		Radius: r + 1,
	}
}

// TestNonCovKNNTieOrder pins the satellite fix: equidistant
// non-covalent candidates rank by node index, so a capped K-NN
// selects the lowest-indexed neighbors — deterministically, on both
// the brute-force and the cell-list path.
func TestNonCovKNNTieOrder(t *testing.T) {
	p := symmetricPocket(3) // all six atoms at exactly 3.0 A (sqrt(9) is exact)
	m := &chem.Mol{Name: "probe", Atoms: []chem.Atom{{Symbol: "C"}}}
	o := GraphOptions{CovK: 6, NonCovK: 3, CovThreshold: 2.24, NonCovThreshold: 5}

	want := []Edge{
		{From: 1, To: 0, Dist: 3}, // pocket atom 0 is node 1 (nl == 1)
		{From: 2, To: 0, Dist: 3},
		{From: 3, To: 0, Dist: 3},
	}
	check := func(path string, g *Graph) {
		t.Helper()
		if len(g.NonCov) != len(want) {
			t.Fatalf("%s: %d non-covalent edges, want %d", path, len(g.NonCov), len(want))
		}
		for i, e := range want {
			if g.NonCov[i] != e {
				t.Fatalf("%s: tie broken wrong: edge %d = %+v, want %+v", path, i, g.NonCov[i], e)
			}
		}
	}
	check("brute-force", BuildGraph(p, m, o))
	pf := NewPocketPrefeature(p, DefaultVoxelOptions(), o)
	check("cell-list", pf.BuildGraphInto(nil, m))
}

// TestCovalentKNNTieOrder pins the covalent half of the tie fix: four
// bonds of exactly equal length capped at CovK=2 keep the two
// lowest-indexed partners.
func TestCovalentKNNTieOrder(t *testing.T) {
	d := 1.5
	m := &chem.Mol{
		Name: "star",
		Atoms: []chem.Atom{
			{Symbol: "C"},
			{Symbol: "C", Pos: chem.Vec3{X: d}},
			{Symbol: "C", Pos: chem.Vec3{X: -d}},
			{Symbol: "C", Pos: chem.Vec3{Y: d}},
			{Symbol: "C", Pos: chem.Vec3{Y: -d}},
		},
		Bonds: []chem.Bond{{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 3}, {A: 0, B: 4}},
	}
	o := GraphOptions{CovK: 2, NonCovK: 0, CovThreshold: 2.24, NonCovThreshold: 0}
	g := BuildGraph(symmetricPocket(50), m, o)
	// Node 0's candidates 1..4 are all at exactly 1.5 A; CovK=2 must
	// keep partners 1 and 2. Leaf nodes each keep their single bond.
	var node0 []Edge
	for _, e := range g.Covalent {
		if e.To == 0 {
			node0 = append(node0, e)
		}
	}
	want := []Edge{{From: 1, To: 0, Dist: d}, {From: 2, To: 0, Dist: d}}
	if len(node0) != len(want) {
		t.Fatalf("node 0 kept %d covalent edges, want %d", len(node0), len(want))
	}
	for i, e := range want {
		if node0[i] != e {
			t.Fatalf("covalent tie broken wrong: edge %d = %+v, want %+v", i, node0[i], e)
		}
	}
}

// TestBuildGraphIntoWarmZeroAlloc pins the scratch design: rebuilding
// a warm graph — cached or uncached path — performs no heap
// allocations.
func TestBuildGraphIntoWarmZeroAlloc(t *testing.T) {
	gro := DefaultGraphOptions()
	mols := []*chem.Mol{
		mustMol(t, "CCN(CC)CCNC(=O)c1ccccc1"),
		mustMol(t, "CCO"),
		mustMol(t, "CC(C)Cc1ccc(cc1)C(C)C(=O)O"),
	}
	for _, m := range mols {
		target.Protease1.PlaceLigand(m)
	}
	pf := NewPocketPrefeature(target.Protease1, DefaultVoxelOptions(), gro)

	var g *Graph
	i := 0
	loop := func() { g = pf.BuildGraphInto(g, mols[i%len(mols)]); i++ }
	for w := 0; w < 2*len(mols); w++ {
		loop()
	}
	if avg := testing.AllocsPerRun(30, loop); avg != 0 {
		t.Errorf("warm cell-list BuildGraphInto allocates %.1f times per pose, want 0", avg)
	}

	var gb *Graph
	j := 0
	brute := func() { gb = BuildGraphInto(gb, target.Protease1, mols[j%len(mols)], gro); j++ }
	for w := 0; w < 2*len(mols); w++ {
		brute()
	}
	if avg := testing.AllocsPerRun(30, brute); avg != 0 {
		t.Errorf("warm brute-force BuildGraphInto allocates %.1f times per pose, want 0", avg)
	}
}
