package md

import (
	"math"
	"testing"
	"testing/quick"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
)

// testMol returns an embedded, pocket-placed ligand for MD tests.
func testMol(t *testing.T, smiles string, p *target.Pocket) *chem.Mol {
	t.Helper()
	m, err := chem.ParseSMILES(smiles)
	if err != nil {
		t.Fatalf("ParseSMILES(%q): %v", smiles, err)
	}
	chem.Embed3D(m, 42)
	if p != nil {
		m = p.PlaceLigand(m)
	}
	return m
}

// velocityVerlet advances s by steps NVE velocity-Verlet steps of dtFs
// femtoseconds each. Energy is conserved up to the integrator's O(dt²)
// drift, which checks the forces against the energy they derive from.
func velocityVerlet(s *System, dtFs float64, steps int) {
	dt := dtFs / akmaTimeFs
	_, f := s.eval(true)
	for step := 0; step < steps; step++ {
		// Half kick, full drift.
		for i := range s.vel {
			s.vel[i] = s.vel[i].Add(f[i].Scale(0.5 * dt / s.mass[i]))
			s.mol.Atoms[i].Pos = s.mol.Atoms[i].Pos.Add(s.vel[i].Scale(dt))
		}
		// New forces, second half kick.
		_, f = s.eval(true)
		for i := range s.vel {
			s.vel[i] = s.vel[i].Add(f[i].Scale(0.5 * dt / s.mass[i]))
		}
	}
}

// totalEnergy returns potential plus kinetic energy in kcal/mol.
func totalEnergy(s *System) float64 { return s.PotentialEnergy() + s.KineticEnergy() }

// maxForce returns the largest per-atom force magnitude in kcal/mol/Å,
// the convergence measure Minimize uses.
func maxForce(s *System) float64 {
	_, forces := s.eval(true)
	var fMax float64
	for _, f := range forces {
		if n := f.Norm(); n > fMax {
			fMax = n
		}
	}
	return fMax
}

func TestForcesMatchNumericalGradient(t *testing.T) {
	p := target.Protease1
	m := testMol(t, "CC(=O)Nc1ccc(O)cc1", p) // paracetamol-like
	s := NewSystem(p, m, 1)
	_, forces := s.eval(true)

	const h = 1e-5
	for i := range s.mol.Atoms {
		for axis := 0; axis < 3; axis++ {
			orig := s.mol.Atoms[i].Pos
			bump := func(d float64) float64 {
				pos := orig
				switch axis {
				case 0:
					pos.X += d
				case 1:
					pos.Y += d
				default:
					pos.Z += d
				}
				s.mol.Atoms[i].Pos = pos
				e := s.PotentialEnergy()
				s.mol.Atoms[i].Pos = orig
				return e
			}
			num := -(bump(h) - bump(-h)) / (2 * h)
			var ana float64
			switch axis {
			case 0:
				ana = forces[i].X
			case 1:
				ana = forces[i].Y
			default:
				ana = forces[i].Z
			}
			tol := 1e-4 * (1 + math.Abs(num))
			if math.Abs(num-ana) > tol {
				t.Fatalf("atom %d axis %d: analytic force %.8f vs numerical %.8f", i, axis, ana, num)
			}
		}
	}
}

func TestInternalForcesSumToZeroInVacuum(t *testing.T) {
	m := testMol(t, "CCOC(=O)C", nil)
	s := NewSystem(nil, m, 1)
	// Perturb the geometry so forces are non-trivial.
	for i := range s.mol.Atoms {
		s.mol.Atoms[i].Pos.X += 0.1 * float64(i%3)
		s.mol.Atoms[i].Pos.Y -= 0.07 * float64(i%2)
	}
	var sum chem.Vec3
	var fMax float64
	_, forces := s.eval(true)
	for _, f := range forces {
		sum = sum.Add(f)
		if n := f.Norm(); n > fMax {
			fMax = n
		}
	}
	if fMax == 0 {
		t.Fatal("expected non-zero forces after perturbation")
	}
	if sum.Norm() > 1e-9*fMax {
		t.Fatalf("internal forces must obey Newton's third law: |sum| = %g (max %g)", sum.Norm(), fMax)
	}
}

func TestNVEConservesEnergy(t *testing.T) {
	p := target.Spike1
	m := testMol(t, "c1ccccc1CCN", p)
	s := NewSystem(p, m, 7)
	s.Minimize(200, 0.5) // start near a minimum so the surface is harmonic-ish
	s.InitVelocities(50)
	e0 := totalEnergy(s)
	velocityVerlet(s, 0.25, 400)
	e1 := totalEnergy(s)
	scale := math.Max(math.Abs(e0), 1)
	if drift := math.Abs(e1-e0) / scale; drift > 0.02 {
		t.Fatalf("NVE drift %.4f (E0=%.3f E1=%.3f) exceeds 2%%", drift, e0, e1)
	}
}

func TestNVESmallerStepDriftsLess(t *testing.T) {
	p := target.Spike1
	m := testMol(t, "CC(C)Cc1ccccc1", p)
	drift := func(dtFs float64, steps int) float64 {
		s := NewSystem(p, m, 11)
		s.Minimize(200, 0.5)
		s.InitVelocities(80)
		e0 := totalEnergy(s)
		velocityVerlet(s, dtFs, steps)
		return math.Abs(totalEnergy(s) - e0)
	}
	// Same simulated duration: 100 fs.
	big := drift(2.0, 50)
	small := drift(0.25, 400)
	if small > big+1e-9 {
		t.Fatalf("expected smaller timestep to conserve energy at least as well: dt=0.25 drift %.5f vs dt=2.0 drift %.5f", small, big)
	}
}

func TestLangevinEquilibratesTemperature(t *testing.T) {
	p := target.Protease2
	m := testMol(t, "NC(=O)c1ccc(Cl)cc1", p)
	s := NewSystem(p, m, 3)
	s.Minimize(150, 0.5)
	const want = 300.0
	s.InitVelocities(want)
	s.Langevin(1.0, want, 5.0, 300) // equilibration
	var sum float64
	const samples = 200
	for i := 0; i < samples; i++ {
		s.Langevin(1.0, want, 5.0, 5)
		sum += s.Temperature()
	}
	avg := sum / samples
	if avg < want*0.55 || avg > want*1.45 {
		t.Fatalf("Langevin average temperature %.1f K not near target %v K", avg, want)
	}
}

func TestMinimizeReducesEnergyAndForce(t *testing.T) {
	p := target.Protease1
	m := testMol(t, "OC(=O)c1ccccc1O", p)
	s := NewSystem(p, m, 5)
	// Strain the geometry.
	for i := range s.mol.Atoms {
		s.mol.Atoms[i].Pos.X += 0.3 * float64(i%2)
	}
	e0 := s.PotentialEnergy()
	f0 := maxForce(s)
	steps, e1 := s.Minimize(300, 0.5)
	if steps == 0 {
		t.Fatal("expected at least one minimization step on a strained geometry")
	}
	if e1 >= e0 {
		t.Fatalf("minimization must lower energy: %.4f -> %.4f", e0, e1)
	}
	if f1 := maxForce(s); f1 >= f0 {
		t.Fatalf("minimization must reduce the max force: %.4f -> %.4f", f0, f1)
	}
	if got := s.PotentialEnergy(); math.Abs(got-e1) > 1e-9 {
		t.Fatalf("Minimize returned energy %.6f but system reports %.6f", e1, got)
	}
}

func TestMinimizeConvergesOnMinimum(t *testing.T) {
	m := testMol(t, "CCO", nil)
	s := NewSystem(nil, m, 1)
	s.Minimize(500, 1e-3)
	// A second call from the converged geometry should do ~nothing.
	before := s.PotentialEnergy()
	steps, after := s.Minimize(50, 1e-3)
	if steps > 2 {
		t.Fatalf("expected converged geometry to need <=2 further steps, got %d", steps)
	}
	if math.Abs(after-before) > 1e-3 {
		t.Fatalf("energy moved %.6f -> %.6f after convergence", before, after)
	}
}

func TestSystemClonesInput(t *testing.T) {
	p := target.Spike2
	m := testMol(t, "CCN(CC)CC", p)
	orig := m.Clone()
	s := NewSystem(p, m, 9)
	s.InitVelocities(300)
	s.Langevin(1.0, 300, 5.0, 50)
	for i := range m.Atoms {
		if m.Atoms[i].Pos != orig.Atoms[i].Pos {
			t.Fatal("NewSystem must not mutate the caller's molecule")
		}
	}
	// Mol() must also be a snapshot, not an alias.
	snap := s.Mol()
	snap.Atoms[0].Pos.X += 100
	if s.mol.Atoms[0].Pos.X == snap.Atoms[0].Pos.X {
		t.Fatal("Mol() must return an independent clone")
	}
}

func TestEmptyAndVacuumSystems(t *testing.T) {
	empty := NewSystem(nil, &chem.Mol{}, 1)
	empty.Langevin(1, 300, 5, 10)
	empty.InitVelocities(300)
	if steps, e := empty.Minimize(10, 0.1); steps != 0 || e != 0 {
		t.Fatalf("empty system Minimize = (%d, %g), want (0, 0)", steps, e)
	}
	if got := empty.Temperature(); got != 0 {
		t.Fatalf("empty system temperature = %g, want 0", got)
	}

	vac := NewSystem(nil, testMol(t, "CC", nil), 1)
	if e := vac.PotentialEnergy(); math.IsNaN(e) || math.IsInf(e, 0) {
		t.Fatalf("vacuum energy not finite: %g", e)
	}
}

func TestInitVelocitiesHitsTargetTemperature(t *testing.T) {
	check := func(seed int64) bool {
		m := testMol(t, "CCCCCCCC", nil)
		s := NewSystem(nil, m, seed)
		want := 50 + math.Abs(float64(seed%7))*100
		s.InitVelocities(want)
		return math.Abs(s.Temperature()-want) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInitVelocitiesZeroTemp(t *testing.T) {
	s := NewSystem(nil, testMol(t, "CCO", nil), 1)
	s.InitVelocities(300)
	s.InitVelocities(0)
	if ke := s.KineticEnergy(); ke != 0 {
		t.Fatalf("zero-temperature velocities should have KE 0, got %g", ke)
	}
}

func TestKineticEnergyNonNegative(t *testing.T) {
	check := func(seed int64, temp float64) bool {
		temp = math.Abs(temp)
		if temp > 1e4 {
			temp = math.Mod(temp, 1e4)
		}
		s := NewSystem(nil, testMol(t, "CCNCC", nil), seed)
		s.InitVelocities(temp)
		return s.KineticEnergy() >= 0 && s.Temperature() >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInitVelocitiesRemovesDrift(t *testing.T) {
	s := NewSystem(nil, testMol(t, "CC(C)C(=O)O", nil), 13)
	s.InitVelocities(300)
	var p chem.Vec3
	for i, v := range s.vel {
		p = p.Add(v.Scale(s.mass[i]))
	}
	if p.Norm() > 1e-9 {
		t.Fatalf("center-of-mass momentum after InitVelocities = %g, want ~0", p.Norm())
	}
}

func TestTopologyCounts(t *testing.T) {
	// Propane C-C-C: 2 bonds, 1 angle (1-3) pair, 0 non-bonded pairs.
	m := testMol(t, "CCC", nil)
	s := NewSystem(nil, m, 1)
	if len(s.bonds) != 2 || len(s.pairs13) != 1 || len(s.nbPairs) != 0 {
		t.Fatalf("propane topology = %d bonds, %d 1-3, %d nb; want 2, 1, 0",
			len(s.bonds), len(s.pairs13), len(s.nbPairs))
	}
	// Butane C-C-C-C adds one 1-4 non-bonded pair.
	m4 := testMol(t, "CCCC", nil)
	s4 := NewSystem(nil, m4, 1)
	if len(s4.bonds) != 3 || len(s4.pairs13) != 2 || len(s4.nbPairs) != 1 {
		t.Fatalf("butane topology = %d bonds, %d 1-3, %d nb; want 3, 2, 1",
			len(s4.bonds), len(s4.pairs13), len(s4.nbPairs))
	}
}

func TestSoftTermsFiniteEverywhere(t *testing.T) {
	check := func(r float64) bool {
		r = math.Abs(math.Mod(r, 20))
		for _, fn := range []func() (float64, float64){
			func() (float64, float64) { return softLJ(r, 3.0, 0.15) },
			func() (float64, float64) { return softCoulomb(r, 0.4, -0.3) },
			func() (float64, float64) { return gbDesolvation(r, 0.4) },
		} {
			e, d := fn()
			if math.IsNaN(e) || math.IsInf(e, 0) || math.IsNaN(d) || math.IsInf(d, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftLJMinimumNearSigma(t *testing.T) {
	const sigma = 3.0
	// With the softcore delta the minimum shifts slightly below sigma;
	// dE/dr must be negative before it and positive after it.
	rMin := math.Sqrt(sigma*sigma - softcore)
	if _, d := softLJ(rMin-0.1, sigma, 0.2); d >= 0 {
		t.Fatalf("dE/dr before the LJ minimum should be negative, got %g", d)
	}
	if _, d := softLJ(rMin+0.1, sigma, 0.2); d <= 0 {
		t.Fatalf("dE/dr after the LJ minimum should be positive, got %g", d)
	}
	if e, _ := softLJ(rMin, sigma, 0.2); math.Abs(e - -0.2) > 1e-9 {
		t.Fatalf("softLJ well depth at the minimum = %g, want -0.2", e)
	}
}
