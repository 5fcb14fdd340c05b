package dock

import (
	"math"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
)

// RefineOptions configures local pose refinement — the short
// minimization step drug-discovery pipelines insert between docking
// and final candidate selection (the paper notes "even molecular
// dynamics simulations can be used before finalizing candidates").
type RefineOptions struct {
	Steps     int     // coordinate-descent iterations
	TransStep float64 // translation probe, Angstroms
	RotStep   float64 // rotation probe, radians
}

// DefaultRefineOptions returns a short deterministic local search.
func DefaultRefineOptions() RefineOptions {
	return RefineOptions{Steps: 25, TransStep: 0.25, RotStep: 0.08}
}

// RefinePose performs deterministic rigid-body coordinate descent on
// the Vina score: at each step it probes +/- translations along each
// axis and +/- rotations about each axis, keeping the best improving
// move. It returns the refined pose and its score; the input is not
// modified.
func RefinePose(p *target.Pocket, mol *chem.Mol, o RefineOptions) (*chem.Mol, float64) {
	cur := mol.Clone()
	sc := newPairScratch(p, mol)
	curScore := sc.score(cur)
	for step := 0; step < o.Steps; step++ {
		bestScore := curScore
		var best *chem.Mol
		for axis := 0; axis < 3; axis++ {
			for _, sign := range []float64{1, -1} {
				// Translation probe.
				cand := cur.Clone()
				d := chem.Vec3{}
				switch axis {
				case 0:
					d.X = sign * o.TransStep
				case 1:
					d.Y = sign * o.TransStep
				case 2:
					d.Z = sign * o.TransStep
				}
				cand.Translate(d)
				if s := sc.score(cand); s < bestScore {
					bestScore, best = s, cand
				}
				// Rotation probe about the centroid.
				cand2 := cur.Clone()
				rotateRigid(cand2, axis, sign*o.RotStep)
				if s := sc.score(cand2); s < bestScore {
					bestScore, best = s, cand2
				}
			}
		}
		if best == nil {
			break // local minimum
		}
		cur, curScore = best, bestScore
	}
	return cur, curScore
}

// rotateRigid rotates the molecule about the given axis through its
// centroid.
func rotateRigid(m *chem.Mol, axis int, angle float64) {
	c := m.Centroid()
	sin, cos := math.Sin(angle), math.Cos(angle)
	for i := range m.Atoms {
		v := m.Atoms[i].Pos.Sub(c)
		var r chem.Vec3
		switch axis {
		case 0:
			r = chem.Vec3{X: v.X, Y: cos*v.Y - sin*v.Z, Z: sin*v.Y + cos*v.Z}
		case 1:
			r = chem.Vec3{X: cos*v.X + sin*v.Z, Y: v.Y, Z: -sin*v.X + cos*v.Z}
		default:
			r = chem.Vec3{X: cos*v.X - sin*v.Y, Y: sin*v.X + cos*v.Y, Z: v.Z}
		}
		m.Atoms[i].Pos = c.Add(r)
	}
}

// RefinePoses refines each pose in place-order and re-sorts by the
// refined score.
func RefinePoses(p *target.Pocket, poses []Pose, o RefineOptions) []Pose {
	out := make([]Pose, len(poses))
	for i, ps := range poses {
		mol, score := RefinePose(p, ps.Mol, o)
		out[i] = Pose{Mol: mol, Score: score}
	}
	// insertion sort by score (few poses)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Score < out[j-1].Score; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	for i := range out {
		out[i].Rank = i
	}
	return out
}
