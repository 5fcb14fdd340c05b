package md

import (
	"math"

	"deepfusion/internal/chem"
)

// Langevin advances the system by steps BAOAB Langevin steps of dtFs
// femtoseconds at temperature tempK with friction gamma (1/ps). BAOAB
// splits each step into half kick (B), half drift (A), full
// Ornstein-Uhlenbeck friction/noise (O), half drift (A), half kick (B),
// which samples configurations accurately even at large time steps.
func (s *System) Langevin(dtFs, tempK, gammaPsInv float64, steps int) {
	if len(s.mol.Atoms) == 0 || steps <= 0 {
		return
	}
	dt := dtFs / akmaTimeFs
	// Convert friction from 1/ps to 1/AKMA-time.
	gamma := gammaPsInv * akmaTimeFs / 1000.0
	c1 := math.Exp(-gamma * dt)
	_, f := s.eval(true)
	for step := 0; step < steps; step++ {
		for i := range s.vel {
			// B: half kick.
			s.vel[i] = s.vel[i].Add(f[i].Scale(0.5 * dt / s.mass[i]))
			// A: half drift.
			s.mol.Atoms[i].Pos = s.mol.Atoms[i].Pos.Add(s.vel[i].Scale(0.5 * dt))
		}
		// O: exact Ornstein-Uhlenbeck update of velocities.
		for i := range s.vel {
			c2 := math.Sqrt((1 - c1*c1) * BoltzmannKcal * tempK / s.mass[i])
			s.vel[i] = s.vel[i].Scale(c1).Add(chem.Vec3{
				X: s.rng.NormFloat64() * c2,
				Y: s.rng.NormFloat64() * c2,
				Z: s.rng.NormFloat64() * c2,
			})
		}
		for i := range s.vel {
			// A: second half drift.
			s.mol.Atoms[i].Pos = s.mol.Atoms[i].Pos.Add(s.vel[i].Scale(0.5 * dt))
		}
		// B: second half kick with fresh forces.
		_, f = s.eval(true)
		for i := range s.vel {
			s.vel[i] = s.vel[i].Add(f[i].Scale(0.5 * dt / s.mass[i]))
		}
	}
}

// Minimize relaxes the geometry by steepest descent with a
// backtracking line search, stopping after maxSteps steps or when the
// largest per-atom force falls below tolKcalPerA. It returns the
// number of accepted steps and the final potential energy. Velocities
// are untouched.
func (s *System) Minimize(maxSteps int, tolKcalPerA float64) (steps int, finalE float64) {
	if len(s.mol.Atoms) == 0 {
		return 0, 0
	}
	e, f := s.eval(true)
	alpha := 1e-3 // initial step, A^2*mol/kcal
	for steps = 0; steps < maxSteps; steps++ {
		fMax := 0.0
		for _, fi := range f {
			if n := fi.Norm(); n > fMax {
				fMax = n
			}
		}
		if fMax < tolKcalPerA {
			break
		}
		// Trial move along the force; backtrack until energy drops.
		saved := make([]chem.Vec3, len(s.mol.Atoms))
		for i := range s.mol.Atoms {
			saved[i] = s.mol.Atoms[i].Pos
		}
		accepted := false
		for try := 0; try < 20; try++ {
			for i := range s.mol.Atoms {
				s.mol.Atoms[i].Pos = saved[i].Add(f[i].Scale(alpha))
			}
			if eNew, fNew := s.eval(true); eNew < e {
				e, f = eNew, fNew
				alpha *= 1.2
				accepted = true
				break
			}
			alpha *= 0.5
		}
		if !accepted {
			for i := range s.mol.Atoms {
				s.mol.Atoms[i].Pos = saved[i]
			}
			break // line search exhausted: converged to precision
		}
	}
	return steps, e
}
