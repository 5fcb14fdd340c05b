package dock

import (
	"math"
	"math/rand"
	"sort"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// Pose is one docked ligand conformation with its Vina score.
type Pose struct {
	Mol   *chem.Mol
	Score float64 // kcal/mol, more negative is better
	Rank  int     // 0 = best
}

// SearchOptions configures the Monte-Carlo docking search.
type SearchOptions struct {
	NumPoses    int     // poses to keep (ConveyorLC keeps up to 10)
	MCSteps     int     // Metropolis steps per restart
	Restarts    int     // independent MC chains (8 in the paper's runs)
	Temperature float64 // Metropolis acceptance temperature, kcal/mol
	Seed        int64
	// TorsionMoves enables Vina-style ligand flexibility: half of the
	// Monte-Carlo proposals rotate a random rotatable bond instead of
	// moving the whole body. Off by default (the calibrated pipeline
	// experiments use rigid docking).
	TorsionMoves    bool
	TorsionMaxAngle float64 // radians per torsion proposal (default pi/3)
}

// DefaultSearchOptions mirrors the ConveyorLC configuration: up to 10
// retained poses from 8 Monte-Carlo restarts.
func DefaultSearchOptions() SearchOptions {
	return SearchOptions{NumPoses: 10, MCSteps: 60, Restarts: 8, Temperature: 1.2, Seed: 1}
}

// Dock runs rigid-body Monte-Carlo pose search of mol in the pocket
// and returns up to NumPoses poses sorted by score (best first). The
// input molecule is not modified.
func Dock(p *target.Pocket, mol *chem.Mol, o SearchOptions) []Pose {
	rng := rand.New(rand.NewSource(o.Seed ^ int64(len(mol.Atoms))))
	var tors []Torsion
	if o.TorsionMoves {
		tors = Torsions(mol)
	}
	maxTorAngle := o.TorsionMaxAngle
	if maxTorAngle <= 0 {
		maxTorAngle = math.Pi / 3
	}
	// Two atom buffers serve every restart: each step copies cur into
	// cand and moves cand. Bonds never change, so the rotatable-bond
	// memo each buffer computes on its first score stays valid, and the
	// steps allocate nothing. A returned pose owns its own copy. One
	// pair scratch serves every score.
	cur, cand := mol.Clone(), mol.Clone()
	sc := newPairScratch(p, mol)
	var poses []Pose
	for restart := 0; restart < o.Restarts; restart++ {
		copy(cur.Atoms, mol.Atoms)
		p.PlaceLigand(cur)
		// Random initial placement within the site.
		jitter(cur, rng, p.Radius*0.4, math.Pi)
		curScore := sc.score(cur)
		best := cur.Clone()
		bestScore := curScore
		for step := 0; step < o.MCSteps; step++ {
			copy(cand.Atoms, cur.Atoms)
			if len(tors) > 0 && rng.Float64() < 0.5 {
				torsionJitter(cand, tors, rng, maxTorAngle)
			} else {
				jitter(cand, rng, 1.2, 0.35)
			}
			s := sc.score(cand)
			if s < curScore || rng.Float64() < tensor.Exp((curScore-s)/o.Temperature) {
				cur, cand, curScore = cand, cur, s
				if s < bestScore {
					copy(best.Atoms, cur.Atoms)
					bestScore = s
				}
			}
		}
		poses = append(poses, Pose{Mol: best, Score: bestScore})
	}
	sort.Slice(poses, func(a, b int) bool { return poses[a].Score < poses[b].Score })
	// Deduplicate near-identical poses (RMSD < 0.5 A), keep best-scored.
	kept := make([]Pose, 0, len(poses))
	for _, cand := range poses {
		dup := false
		for _, k := range kept {
			if RMSD(cand.Mol, k.Mol) < 0.5 {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, cand)
		}
		if len(kept) == o.NumPoses {
			break
		}
	}
	for i := range kept {
		kept[i].Rank = i
	}
	return kept
}

// jitter applies a random rigid-body move: translation with standard
// deviation transStd per axis and rotation up to maxAngle radians about
// a random axis through the centroid.
func jitter(m *chem.Mol, rng *rand.Rand, transStd, maxAngle float64) {
	d := chem.Vec3{
		X: rng.NormFloat64() * transStd,
		Y: rng.NormFloat64() * transStd,
		Z: rng.NormFloat64() * transStd,
	}
	axis := randUnit(rng)
	angle := (rng.Float64()*2 - 1) * maxAngle
	c := m.Centroid()
	sinA, cosA := math.Sin(angle), math.Cos(angle)
	for i := range m.Atoms {
		v := m.Atoms[i].Pos.Sub(c)
		// Rodrigues rotation formula.
		term1 := v.Scale(cosA)
		term2 := cross(axis, v).Scale(sinA)
		term3 := axis.Scale(axis.Dot(v) * (1 - cosA))
		m.Atoms[i].Pos = c.Add(term1).Add(term2).Add(term3).Add(d)
	}
}

func cross(a, b chem.Vec3) chem.Vec3 {
	return chem.Vec3{
		X: a.Y*b.Z - a.Z*b.Y,
		Y: a.Z*b.X - a.X*b.Z,
		Z: a.X*b.Y - a.Y*b.X,
	}
}

func randUnit(rng *rand.Rand) chem.Vec3 {
	for {
		v := chem.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		if n := v.Norm(); n > 1e-6 {
			return v.Scale(1 / n)
		}
	}
}

// RMSD returns the root-mean-square deviation between two poses of the
// same molecule (matched atom order, no superposition — poses share
// the pocket frame). It panics if atom counts differ.
func RMSD(a, b *chem.Mol) float64 {
	if len(a.Atoms) != len(b.Atoms) {
		panic("dock: RMSD requires equal atom counts")
	}
	if len(a.Atoms) == 0 {
		return 0
	}
	s := 0.0
	for i := range a.Atoms {
		d := a.Atoms[i].Pos.Dist(b.Atoms[i].Pos)
		s += d * d
	}
	return math.Sqrt(s / float64(len(a.Atoms)))
}
