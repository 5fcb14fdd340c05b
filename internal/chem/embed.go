package chem

import (
	"math"
	"math/rand"
)

// Geometry constants for the distance-geometry embedding.
const (
	idealBondLength = 1.5 // Angstroms, generic heavy-atom bond
	minNonBonded    = 2.8 // lower bound for non-bonded pairs
	embedSteps      = 300
	embedStepSize   = 0.02
)

// Embed3D generates 3D coordinates for the molecule in place and
// relaxes them with a simple distance-geometry force field: bonded
// pairs are pulled toward the ideal bond length, 1-3 pairs toward the
// tetrahedral distance, and all other pairs are pushed apart. This
// plays the role of MOE's "generate and energetically minimize 3D
// structures" step. The result is deterministic for a given seed.
func Embed3D(m *Mol, seed int64) {
	n := len(m.Atoms)
	if n == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	adj := m.Adjacency()

	// Initial placement: BFS from atom 0, each new atom at a random unit
	// direction from its parent, which avoids pathological overlaps.
	placed := make([]bool, n)
	order := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if placed[s] {
			continue
		}
		m.Atoms[s].Pos = Vec3{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4}
		placed[s] = true
		queue := []int{s}
		order = append(order, s)
		for len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			for _, e := range adj[a] {
				if placed[e.Nbr] {
					continue
				}
				dir := randomUnit(rng)
				m.Atoms[e.Nbr].Pos = m.Atoms[a].Pos.Add(dir.Scale(idealBondLength))
				placed[e.Nbr] = true
				queue = append(queue, e.Nbr)
				order = append(order, e.Nbr)
			}
		}
	}

	// Each atom's bonded and 1-3 partners of higher index, found once:
	// partners[start[i]:start[i+1]] for atom i. A bonded entry follows
	// any 1-3 entry for the same pair, so it takes precedence when a
	// row's entries are written in order.
	start := make([]int, n+1)
	var partners []partner
	for i := 0; i < n; i++ {
		for _, e := range adj[i] {
			for _, f := range adj[e.Nbr] {
				if f.Nbr > i {
					partners = append(partners, partner{f.Nbr, relOneThree})
				}
			}
		}
		for _, e := range adj[i] {
			if e.Nbr > i {
				partners = append(partners, partner{e.Nbr, relBonded})
			}
		}
		start[i+1] = len(partners)
	}
	// rel holds atom i's relations while i is the outer atom of a step,
	// so the table stays O(n) however large the molecule.
	rel := make([]uint8, n)
	angleDist := idealBondLength * math.Sqrt(8.0/3.0) // tetrahedral 1-3 distance

	grad := make([]Vec3, n)
	for step := 0; step < embedSteps; step++ {
		for i := range grad {
			grad[i] = Vec3{}
		}
		for i := 0; i < n; i++ {
			row := partners[start[i]:start[i+1]]
			for _, p := range row {
				rel[p.j] = p.rel
			}
			for j := i + 1; j < n; j++ {
				d := m.Atoms[j].Pos.Sub(m.Atoms[i].Pos)
				r := d.Norm()
				if r < 1e-9 {
					d = randomUnit(rng)
					r = 1e-3
				}
				var f float64 // positive pulls together, negative pushes apart
				rij := rel[j]
				switch {
				case rij == relBonded:
					f = 2 * (r - idealBondLength)
				case rij == relOneThree:
					f = 1 * (r - angleDist)
				case r < minNonBonded:
					f = 4 * (r - minNonBonded)
				default:
					continue
				}
				u := d.Scale(f / r)
				grad[i] = grad[i].Add(u)
				grad[j] = grad[j].Sub(u)
			}
			for _, p := range row {
				rel[p.j] = 0
			}
		}
		for i := 0; i < n; i++ {
			m.Atoms[i].Pos = m.Atoms[i].Pos.Add(grad[i].Scale(embedStepSize))
		}
	}

	// Center on the centroid so downstream placement is translation-free.
	m.Translate(m.Centroid().Scale(-1))
}

// Pair relations of the embedding force field; 0 is non-bonded.
const (
	relBonded uint8 = 1 + iota
	relOneThree
)

// partner is one bonded or 1-3 partner of an atom.
type partner struct {
	j   int
	rel uint8
}

func randomUnit(rng *rand.Rand) Vec3 {
	for {
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if n := v.Norm(); n > 1e-6 {
			return v.Scale(1 / n)
		}
	}
}
