package dock

import (
	"math"
	"testing"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
)

func mustMol(t *testing.T, s, name string) *chem.Mol {
	t.Helper()
	m, err := chem.ParseSMILES(s)
	if err != nil {
		t.Fatal(err)
	}
	m.Name = name
	chem.Embed3D(m, 5)
	return m
}

func TestVinaScoreFiniteAndDeterministic(t *testing.T) {
	m := mustMol(t, "CC(=O)Oc1ccccc1C(=O)O", "asp")
	target.Protease1.PlaceLigand(m)
	a := VinaScore(target.Protease1, m)
	b := VinaScore(target.Protease1, m)
	if a != b {
		t.Fatal("VinaScore not deterministic")
	}
	if math.IsNaN(a) || math.IsInf(a, 0) {
		t.Fatalf("VinaScore = %v", a)
	}
}

func TestVinaPrefersPocketOverBulk(t *testing.T) {
	// Averaged over compounds, the score in the pocket must beat the
	// score far outside (contact terms vanish there).
	smiles := []string{"c1ccccc1CCN", "CC(=O)Oc1ccccc1C(=O)O", "c1ccc2ccccc2c1", "CCCCCCCC", "NCCO"}
	better := 0
	for i, s := range smiles {
		m := mustMol(t, s, s)
		target.Protease1.PlaceLigand(m)
		in := VinaScore(target.Protease1, m)
		m.Translate(chem.Vec3{X: 50})
		out := VinaScore(target.Protease1, m)
		if in < out {
			better++
		}
		_ = i
	}
	if better < 4 {
		t.Fatalf("pocket poses better for only %d/5 compounds", better)
	}
}

func TestClashRaisesVinaScore(t *testing.T) {
	m := mustMol(t, "CCCCC", "pent")
	// Place directly on a pocket atom -> repulsion dominates.
	m.Translate(target.Protease1.Atoms[0].Pos.Sub(m.Centroid()))
	clashed := VinaScore(target.Protease1, m)
	m2 := mustMol(t, "CCCCC", "pent")
	target.Protease1.PlaceLigand(m2)
	centered := VinaScore(target.Protease1, m2)
	if clashed <= centered {
		t.Fatalf("clash score %v should exceed centered score %v", clashed, centered)
	}
}

func TestSlope(t *testing.T) {
	if slope(-1, -0.7, 0) != 1 {
		t.Fatal("below good must be 1")
	}
	if slope(0.5, -0.7, 0) != 0 {
		t.Fatal("above bad must be 0")
	}
	if v := slope(-0.35, -0.7, 0); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("midpoint = %v", v)
	}
}

func TestDockReturnsSortedDistinctPoses(t *testing.T) {
	m := mustMol(t, "c1ccccc1CC(=O)O", "test1")
	o := DefaultSearchOptions()
	o.Restarts = 6
	o.MCSteps = 30
	poses := Dock(target.Spike1, m, o)
	if len(poses) == 0 {
		t.Fatal("no poses")
	}
	for i := 1; i < len(poses); i++ {
		if poses[i].Score < poses[i-1].Score {
			t.Fatal("poses not sorted by score")
		}
		if RMSD(poses[i].Mol, poses[i-1].Mol) < 0.5 {
			t.Fatal("duplicate poses survived dedup")
		}
	}
	for i, p := range poses {
		if p.Rank != i {
			t.Fatalf("pose %d has rank %d", i, p.Rank)
		}
	}
	if len(poses) > o.NumPoses {
		t.Fatalf("kept %d poses, cap %d", len(poses), o.NumPoses)
	}
}

func TestDockDoesNotMutateInput(t *testing.T) {
	m := mustMol(t, "CCO", "eth")
	orig := m.Clone()
	Dock(target.Spike1, m, SearchOptions{NumPoses: 3, MCSteps: 10, Restarts: 2, Temperature: 1, Seed: 2})
	for i := range m.Atoms {
		if m.Atoms[i].Pos != orig.Atoms[i].Pos {
			t.Fatal("Dock mutated input coordinates")
		}
	}
}

// TestDockAllocsIndependentOfSteps pins the search's allocation shape:
// the Monte-Carlo steps move atoms within reused buffers, so a longer
// search allocates exactly what a shorter one does.
func TestDockAllocsIndependentOfSteps(t *testing.T) {
	m := mustMol(t, "CC(=O)Nc1ccc(OCCN)cc1", "alloc-probe")
	for _, torsion := range []bool{false, true} {
		allocs := func(steps int) float64 {
			o := SearchOptions{NumPoses: 3, MCSteps: steps, Restarts: 4, Temperature: 1.2, Seed: 41, TorsionMoves: torsion}
			return testing.AllocsPerRun(10, func() { Dock(target.Protease1, m, o) })
		}
		if a30, a120 := allocs(30), allocs(120); a30 != a120 {
			t.Fatalf("torsion=%t: Dock allocates %v times at 30 steps, %v at 120", torsion, a30, a120)
		}
	}
}

func TestDockDeterministicForSeed(t *testing.T) {
	m := mustMol(t, "c1ccccc1O", "phenol")
	o := SearchOptions{NumPoses: 5, MCSteps: 20, Restarts: 3, Temperature: 1, Seed: 42}
	a := Dock(target.Spike2, m, o)
	b := Dock(target.Spike2, m, o)
	if len(a) != len(b) {
		t.Fatal("pose counts differ")
	}
	for i := range a {
		if a[i].Score != b[i].Score {
			t.Fatal("docking not deterministic")
		}
	}
}

func TestDockFindsPocket(t *testing.T) {
	// The best pose should sit near the pocket center, not in bulk.
	m := mustMol(t, "c1ccccc1CCN", "tgt")
	o := DefaultSearchOptions()
	poses := Dock(target.Protease1, m, o)
	best := poses[0]
	if d := best.Mol.Centroid().Norm(); d > target.Protease1.Radius*1.5 {
		t.Fatalf("best pose centroid %v A from site center", d)
	}
}

func TestRMSD(t *testing.T) {
	a := mustMol(t, "CCO", "a")
	b := a.Clone()
	if RMSD(a, b) != 0 {
		t.Fatal("identical poses must have RMSD 0")
	}
	b.Translate(chem.Vec3{X: 2})
	if math.Abs(RMSD(a, b)-2) > 1e-12 {
		t.Fatalf("RMSD = %v, want 2", RMSD(a, b))
	}
}

func TestRMSDMismatchPanics(t *testing.T) {
	a := mustMol(t, "CCO", "a")
	b := mustMol(t, "CC", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RMSD(a, b)
}

func TestJitterPreservesGeometry(t *testing.T) {
	m := mustMol(t, "c1ccccc1", "benz")
	orig := m.Clone()
	rng := newTestRand()
	jitter(m, rng, 1.0, 0.5)
	for i := range m.Atoms {
		for j := i + 1; j < len(m.Atoms); j++ {
			a := m.Atoms[i].Pos.Dist(m.Atoms[j].Pos)
			b := orig.Atoms[i].Pos.Dist(orig.Atoms[j].Pos)
			if math.Abs(a-b) > 1e-9 {
				t.Fatal("rigid-body jitter distorted internal geometry")
			}
		}
	}
}
