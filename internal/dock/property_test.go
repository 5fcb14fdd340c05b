package dock

// Property-based tests (testing/quick) for the docking substrate: the
// RMSD metric axioms, scoring determinism, and the pose-set contracts
// of the Monte-Carlo search.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
)

func randomPosedMol(rng *rand.Rand) *chem.Mol {
	n := 4 + rng.Intn(10)
	m := &chem.Mol{Name: "prop"}
	symbols := []string{"C", "N", "O"}
	for i := 0; i < n; i++ {
		m.Atoms = append(m.Atoms, chem.Atom{
			Symbol: symbols[rng.Intn(len(symbols))],
			Pos: chem.Vec3{
				X: rng.NormFloat64() * 3,
				Y: rng.NormFloat64() * 3,
				Z: rng.NormFloat64() * 3,
			},
		})
		if i > 0 {
			m.Bonds = append(m.Bonds, chem.Bond{A: i - 1, B: i, Order: 1})
		}
	}
	return m
}

func TestRMSDIdentityProperty(t *testing.T) {
	check := func(seed int64) bool {
		m := randomPosedMol(rand.New(rand.NewSource(seed)))
		return RMSD(m, m) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRMSDSymmetryProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPosedMol(rng)
		b := a.Clone()
		jitter(b, rng, 1.0, 0.5)
		return math.Abs(RMSD(a, b)-RMSD(b, a)) < 1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRMSDPureTranslationProperty(t *testing.T) {
	// Translating every atom by d gives RMSD exactly |d|.
	check := func(seed int64, dx, dy, dz float64) bool {
		for _, v := range []float64{dx, dy, dz} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		d := chem.Vec3{X: math.Mod(dx, 50), Y: math.Mod(dy, 50), Z: math.Mod(dz, 50)}
		a := randomPosedMol(rand.New(rand.NewSource(seed)))
		b := a.Clone()
		b.Translate(d)
		return math.Abs(RMSD(a, b)-d.Norm()) < 1e-9*(1+d.Norm())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRMSDNonNegativeProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPosedMol(rng)
		b := a.Clone()
		jitter(b, rng, 2.0, 1.0)
		return RMSD(a, b) >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVinaScoreDeterministicProperty(t *testing.T) {
	targets := target.All()
	check := func(seed int64, tPick uint) bool {
		p := targets[int(tPick%uint(len(targets)))]
		m := randomPosedMol(rand.New(rand.NewSource(seed)))
		p.PlaceLigand(m)
		s1 := VinaScore(p, m)
		s2 := VinaScore(p, m)
		return s1 == s2 && !math.IsNaN(s1) && !math.IsInf(s1, 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDockPoseSetContractsProperty(t *testing.T) {
	// For random seeds: pose count bounded by NumPoses, ranks
	// sequential, scores sorted ascending, and the input unmodified.
	p := target.Protease1
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomPosedMol(rng)
		orig := m.Clone()
		o := SearchOptions{NumPoses: 1 + rng.Intn(6), MCSteps: 10, Restarts: 4, Temperature: 1.2, Seed: seed}
		poses := Dock(p, m, o)
		if len(poses) == 0 || len(poses) > o.NumPoses {
			return false
		}
		for i, ps := range poses {
			if ps.Rank != i {
				return false
			}
			if i > 0 && ps.Score < poses[i-1].Score {
				return false
			}
		}
		for i := range m.Atoms {
			if m.Atoms[i].Pos != orig.Atoms[i].Pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
