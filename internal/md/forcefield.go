// Package md implements the molecular-dynamics refinement substrate of
// the drug-discovery funnel. The paper (Section 3.1) notes that "even
// molecular dynamics (MD) simulations can be used before finalizing
// candidates for physical experimentation"; this package provides that
// final, most expensive stage: a Langevin integrator
// over a differentiable force field whose non-bonded terms mirror the
// MM/GBSA single-point decomposition in internal/mmgbsa.
//
// The ligand is mobile; the pocket is a rigid external field, the same
// approximation ConveyorLC's MM/GBSA stage uses for rescoring. Units
// follow the AKMA convention: length in Angstroms, energy in kcal/mol,
// mass in Daltons, with time expressed in femtoseconds at the API and
// converted internally.
package md

import (
	"math"
	"math/rand"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
)

// Physical constants (AKMA unit system).
const (
	// BoltzmannKcal is kB in kcal/(mol*K).
	BoltzmannKcal = 0.0019872041
	// akmaTimeFs is one AKMA time unit in femtoseconds: with masses in
	// Daltons, lengths in Angstroms and energies in kcal/mol,
	// accelerations F/m advance positions on this time scale.
	akmaTimeFs = 48.88821
	// softcore is the delta (Angstrom^2) added to squared distances in
	// every non-bonded term, keeping the potential and its gradient
	// finite and smooth at all separations.
	softcore = 0.25
)

// Force-field parameters. Bonded constants are generic GAFF-scale
// values; non-bonded constants match internal/mmgbsa so that the MD
// stage relaxes poses on the same energy surface MM/GBSA scores them.
const (
	bondK    = 300.0 // kcal/mol/A^2 harmonic bond constant
	angleK   = 60.0  // kcal/mol/A^2 harmonic 1-3 distance constant
	intraEps = 0.10  // kcal/mol intramolecular LJ well depth
	interEps = 0.15  // kcal/mol ligand-pocket LJ well depth
	coulK    = 332.0 // kcal*A/mol/e^2 Coulomb constant
)

// bondTerm is a harmonic restraint between two bonded atoms.
type bondTerm struct {
	a, b int
	r0   float64
}

// System is a ligand embedded in a rigid pocket field, with
// velocities, masses and precomputed bonded/non-bonded term lists.
// Construct with NewSystem; the zero value is not usable.
type System struct {
	pocket *target.Pocket // nil means vacuum (intramolecular terms only)
	mol    *chem.Mol      // positions live here; owned by the System
	vel    []chem.Vec3
	mass   []float64
	charge []float64 // crude partial charges, e units

	bonds   []bondTerm // 1-2 harmonic terms
	pairs13 []bondTerm // 1-3 harmonic terms (angle surrogate)
	nbPairs [][2]int   // intramolecular pairs >= 3 bonds apart

	rng *rand.Rand
}

// NewSystem builds an MD system for mol posed in pocket p. The
// molecule is cloned: the caller's coordinates are never modified.
// Pass a nil pocket for an isolated (vacuum) ligand. Equilibrium bond
// and 1-3 distances are taken from the input geometry, so the input
// should be a chem.Embed3D-derived conformation (as every docked pose
// is). Velocities start at zero; call InitVelocities to thermalize.
func NewSystem(p *target.Pocket, mol *chem.Mol, seed int64) *System {
	m := mol.Clone()
	n := len(m.Atoms)
	s := &System{
		pocket: p,
		mol:    m,
		vel:    make([]chem.Vec3, n),
		mass:   make([]float64, n),
		charge: make([]float64, n),
		rng:    rand.New(rand.NewSource(seed)),
	}
	// MD uses PEOE partial charges (the antechamber stage of ligand
	// prep); the cheaper single-point MM/GBSA surrogate keeps its
	// calibrated electronegativity model.
	peoe := chem.GasteigerCharges(m, 0)
	for i, a := range m.Atoms {
		e, ok := chem.Elements[a.Symbol]
		if !ok {
			e = chem.Elements["C"]
		}
		// Fold implicit hydrogens into the heavy-atom mass, the
		// united-atom convention the rest of the pipeline uses.
		s.mass[i] = e.Mass + float64(a.NumH)*chem.Elements["H"].Mass
		s.charge[i] = peoe[i]
	}
	for _, b := range m.Bonds {
		r0 := m.Atoms[b.A].Pos.Dist(m.Atoms[b.B].Pos)
		s.bonds = append(s.bonds, bondTerm{a: b.A, b: b.B, r0: r0})
	}
	s.buildTopology()
	return s
}

// buildTopology derives 1-3 terms and the >=1-4 non-bonded pair list
// from graph distances over the bond network.
func (s *System) buildTopology() {
	n := len(s.mol.Atoms)
	if n == 0 {
		return
	}
	adj := make([][]int, n)
	for _, b := range s.mol.Bonds {
		adj[b.A] = append(adj[b.A], b.B)
		adj[b.B] = append(adj[b.B], b.A)
	}
	const unreach = 1 << 30
	dist := make([][]int, n)
	for src := 0; src < n; src++ {
		d := make([]int, n)
		for i := range d {
			d[i] = unreach
		}
		d[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if d[w] > d[v]+1 {
					d[w] = d[v] + 1
					queue = append(queue, w)
				}
			}
		}
		dist[src] = d
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case dist[i][j] == 2:
				r0 := s.mol.Atoms[i].Pos.Dist(s.mol.Atoms[j].Pos)
				s.pairs13 = append(s.pairs13, bondTerm{a: i, b: j, r0: r0})
			case dist[i][j] >= 3: // includes disconnected fragments
				s.nbPairs = append(s.nbPairs, [2]int{i, j})
			}
		}
	}
}

// NumAtoms returns the number of mobile (ligand) atoms.
func (s *System) NumAtoms() int { return len(s.mol.Atoms) }

// Mol returns a snapshot of the current ligand geometry.
func (s *System) Mol() *chem.Mol { return s.mol.Clone() }

// PotentialEnergy returns the total potential energy in kcal/mol.
func (s *System) PotentialEnergy() float64 {
	e, _ := s.eval(false)
	return e
}

// eval computes the potential energy and, when wantForces is set, the
// analytic forces. Every term is expressed through a scalar function
// of one interatomic distance, so forces follow from dE/dr along the
// pair unit vector.
func (s *System) eval(wantForces bool) (float64, []chem.Vec3) {
	var energy float64
	var forces []chem.Vec3
	if wantForces {
		forces = make([]chem.Vec3, len(s.mol.Atoms))
	}
	addPair := func(i, j int, e, dEdr float64) {
		energy += e
		if forces == nil || dEdr == 0 {
			return
		}
		rij := s.mol.Atoms[j].Pos.Sub(s.mol.Atoms[i].Pos)
		r := rij.Norm()
		if r < 1e-9 {
			return // coincident atoms exert no directional force
		}
		// Force on j is -dE/dr * unit(rij); i gets the reaction.
		fj := rij.Scale(-dEdr / r)
		forces[j] = forces[j].Add(fj)
		forces[i] = forces[i].Sub(fj)
	}

	// Harmonic bonds and 1-3 angle surrogates.
	for _, t := range s.bonds {
		r := s.mol.Atoms[t.a].Pos.Dist(s.mol.Atoms[t.b].Pos)
		addPair(t.a, t.b, bondK*(r-t.r0)*(r-t.r0), 2*bondK*(r-t.r0))
	}
	for _, t := range s.pairs13 {
		r := s.mol.Atoms[t.a].Pos.Dist(s.mol.Atoms[t.b].Pos)
		addPair(t.a, t.b, angleK*(r-t.r0)*(r-t.r0), 2*angleK*(r-t.r0))
	}

	// Intramolecular softcore Lennard-Jones on >=1-4 pairs.
	for _, pr := range s.nbPairs {
		i, j := pr[0], pr[1]
		ei := elementOf(s.mol.Atoms[i].Symbol)
		ej := elementOf(s.mol.Atoms[j].Symbol)
		sigma := (ei.VdwRadius + ej.VdwRadius) * 0.85 // Lorentz-style combining rule
		e, dEdr := softLJ(s.mol.Atoms[i].Pos.Dist(s.mol.Atoms[j].Pos), sigma, intraEps)
		addPair(i, j, e, dEdr)
	}

	// Ligand-pocket field: softcore LJ + screened Coulomb + GB-style
	// desolvation, the smooth analogue of mmgbsa.forceFieldTerms.
	if s.pocket != nil {
		for i := range s.mol.Atoms {
			ai := &s.mol.Atoms[i]
			ei := elementOf(ai.Symbol)
			qi := s.charge[i]
			sigma := (ei.VdwRadius + 1.7) * 0.89
			for _, pa := range s.pocket.Atoms {
				rij := pa.Pos.Sub(ai.Pos)
				r := rij.Norm()
				if r > 12 {
					continue
				}
				qj := pa.Charged*0.8 + pocketHBondCharge(pa)

				e, dEdr := softLJ(r, sigma, interEps)
				ec, dc := softCoulomb(r, qi, qj)
				eg, dg := gbDesolvation(r, qi)
				e += ec + eg
				dEdr += dc + dg

				energy += e
				if forces != nil && r > 1e-9 {
					// Only the ligand atom moves; the pocket is rigid.
					// rij points ligand -> pocket, so F_i = +dE/dr * rij/r.
					forces[i] = forces[i].Add(rij.Scale(dEdr / r))
				}
			}
		}
	}
	return energy, forces
}

// softLJ is the softcore 6-12 potential eps*(s6^2 - 2*s6) with
// s6 = (sigma^2/(r^2+delta))^3, and its derivative dE/dr.
func softLJ(r, sigma, eps float64) (e, dEdr float64) {
	r2 := r*r + softcore
	s2 := sigma * sigma / r2
	s6 := s2 * s2 * s2
	e = eps * (s6*s6 - 2*s6)
	// dE/ds6 = 2*eps*(s6-1) and ds6/dr2 = -3*s6/r2, so
	// dE/dr2 = -6*eps*(s6^2 - s6)/r2; dE/dr = dE/dr2 * 2r.
	dEdr2 := -6 * eps * (s6*s6 - s6) / r2
	dEdr = dEdr2 * 2 * r
	return e, dEdr
}

// softCoulomb is a screened, softcore Coulomb term with the
// distance-dependent dielectric eps(r) = 4r used by the MM/GBSA
// surrogate: E = coulK*qi*qj/(4*(r^2+delta)).
func softCoulomb(r, qi, qj float64) (e, dEdr float64) {
	r2 := r*r + softcore
	e = coulK * qi * qj / (4 * r2)
	dEdr = -coulK * qi * qj / (4 * r2 * r2) * 2 * r
	return e, dEdr
}

// gbDesolvation is the pairwise Generalized-Born-style screening of
// the ligand atom's self-energy: E = -0.5*q^2*exp(-r/6)/(r+1).
func gbDesolvation(r, q float64) (e, dEdr float64) {
	ex := math.Exp(-r / 6)
	e = -0.5 * q * q * ex / (r + 1)
	dEdr = -0.5 * q * q * (-ex/6/(r+1) - ex/((r+1)*(r+1)))
	return e, dEdr
}

func elementOf(sym string) chem.Element {
	if e, ok := chem.Elements[sym]; ok {
		return e
	}
	return chem.Elements["C"]
}

func pocketHBondCharge(pa target.PocketAtom) float64 {
	switch {
	case pa.Donor:
		return 0.2
	case pa.Acceptor:
		return -0.2
	}
	return 0
}

// KineticEnergy returns the kinetic energy in kcal/mol.
func (s *System) KineticEnergy() float64 {
	var ke float64
	for i, v := range s.vel {
		ke += 0.5 * s.mass[i] * v.Dot(v)
	}
	return ke
}

// Temperature returns the instantaneous kinetic temperature in Kelvin
// (zero for systems with no atoms).
func (s *System) Temperature() float64 {
	n := len(s.vel)
	if n == 0 {
		return 0
	}
	dof := 3 * n
	return 2 * s.KineticEnergy() / (float64(dof) * BoltzmannKcal)
}

// InitVelocities draws Maxwell-Boltzmann velocities at tempK, removes
// the center-of-mass drift, and rescales to hit tempK exactly.
func (s *System) InitVelocities(tempK float64) {
	n := len(s.vel)
	if n == 0 || tempK <= 0 {
		for i := range s.vel {
			s.vel[i] = chem.Vec3{}
		}
		return
	}
	for i := range s.vel {
		std := math.Sqrt(BoltzmannKcal * tempK / s.mass[i])
		s.vel[i] = chem.Vec3{
			X: s.rng.NormFloat64() * std,
			Y: s.rng.NormFloat64() * std,
			Z: s.rng.NormFloat64() * std,
		}
	}
	s.removeDrift()
	if t := s.Temperature(); t > 0 {
		scale := math.Sqrt(tempK / t)
		for i := range s.vel {
			s.vel[i] = s.vel[i].Scale(scale)
		}
	}
}

// removeDrift zeroes the center-of-mass momentum.
func (s *System) removeDrift() {
	var p chem.Vec3
	var mTot float64
	for i, v := range s.vel {
		p = p.Add(v.Scale(s.mass[i]))
		mTot += s.mass[i]
	}
	if mTot == 0 {
		return
	}
	drift := p.Scale(1 / mTot)
	for i := range s.vel {
		s.vel[i] = s.vel[i].Sub(drift)
	}
}
