// Package dock implements the physics-based docking substrate of the
// screening pipeline: an AutoDock-Vina-style empirical scoring
// function, Monte-Carlo rigid-body pose search and RMSD pose
// comparison — the docking stage of the paper's ConveyorLC toolchain.
package dock

import (
	"math"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// Vina-style scoring-function weights (Trott & Olson 2010 ordering:
// gauss1, gauss2, repulsion, hydrophobic, hbond; rotor penalty).
const (
	wGauss1      = -0.0356
	wGauss2      = -0.00516
	wRepulsion   = 0.840
	wHydrophobic = -0.0351
	wHBond       = -0.587
	wRotor       = 0.0585
	// cutoff distance for pair interactions
	pairCutoff = 8.0
)

// vinaBias is the Vina surrogate's systematic error profile: strong on
// shape complementarity and hydrophobics, weak on electrostatics and
// hydrogen-bond chemistry, over-penalizing rotors, with per-compound
// noise calibrated so docked-pose Pearson against true pK lands near
// the paper's 0.579.
var vinaBias = target.MethodBias{
	Tag:     "vina",
	Contact: 1.0, Hydro: 1.25, HBond: 0.55, Arom: 0.80, Rot: 1.5, Charge: 0.30,
	Noise: 0.48,
}

// kcalPerPK converts pK units to kcal/mol at ~300 K (dG = -RT ln K).
const kcalPerPK = 1.36

// VinaScore evaluates the Vina-style empirical binding score of mol
// posed in the pocket frame, in kcal/mol (more negative is better).
// The score combines the classic empirical pair terms (gauss,
// repulsion, hydrophobic, hbond, rotor normalization) with the
// method's biased view of the planted affinity surface.
func VinaScore(p *target.Pocket, mol *chem.Mol) float64 {
	s := newPairScratch(p, mol)
	return s.score(mol)
}

// score is VinaScore of mol, a pose of the molecule s was built for.
func (s *pairScratch) score(mol *chem.Mol) float64 {
	return -kcalPerPK*s.pocket.BiasedAffinity(mol, vinaBias) + 0.15*s.empiricalTerms(mol)
}

// Pocket pseudo-atom flags, and the flags a ligand atom pairs with.
const (
	flagHydrophobic = 1 << iota
	flagDonor
	flagAcceptor
)

// expWindow is how many exp arguments empiricalTerms gathers for one
// tensor.ExpInto call: a fixed window, allocated once per scratch
// whatever the in-cutoff count. A score of up to expWindow/2 in-cutoff
// pairs makes a single call; the service's compounds make one to four.
const expWindow = 512

// pairScratch holds what empiricalTerms reads of a pocket and of a
// ligand's topology as flat arrays, built once per Dock call, and the
// buffers each score reuses. It is valid for any pose of molecules
// with the same atom symbols in the same order.
type pairScratch struct {
	pocket     *target.Pocket
	px, py, pz []float64 // pocket atom positions
	pflags     []uint8   // pocket atom flags
	lig        []ligAtom // the ligand atoms of a known element, in order
	pairD      []float64 // one ligand atom's in-cutoff distances and the
	pairF      []uint8   // flags of their pocket atoms, in ascending order
	args       []float64 // exp arguments: gauss1 and gauss2 interleaved
}

// ligAtom is one ligand atom as empiricalTerms reads it.
type ligAtom struct {
	i      int     // index into Mol.Atoms
	radius float64 // VdwRadius + 1.7, the summed radii with a pocket pseudo-atom
	want   uint8   // the pocket flags it interacts with
}

func newPairScratch(p *target.Pocket, mol *chem.Mol) pairScratch {
	m := len(p.Atoms)
	f, b := make([]float64, 4*m+expWindow), make([]uint8, 2*m)
	s := pairScratch{
		pocket: p,
		px:     f[:m], py: f[m : 2*m], pz: f[2*m : 3*m], pairD: f[3*m : 4*m], args: f[4*m:],
		pflags: b[:m], pairF: b[m:],
		lig: make([]ligAtom, 0, len(mol.Atoms)),
	}
	for j, pa := range p.Atoms {
		s.px[j], s.py[j], s.pz[j] = pa.Pos.X, pa.Pos.Y, pa.Pos.Z
		s.pflags[j] = flags(pa.Hydrophobic, pa.Donor, pa.Acceptor)
	}
	for i, a := range mol.Atoms {
		if e, ok := chem.Elements[a.Symbol]; ok {
			// A hydrophobic atom pairs with a hydrophobic one, a donor
			// with an acceptor and an acceptor with a donor.
			want := flags(e.Hydrophobic, e.Acceptor, e.Donor)
			s.lig = append(s.lig, ligAtom{i: i, radius: e.VdwRadius + 1.7, want: want})
		}
	}
	return s
}

func flags(hydrophobic, donor, acceptor bool) uint8 {
	var f uint8
	if hydrophobic {
		f |= flagHydrophobic
	}
	if donor {
		f |= flagDonor
	}
	if acceptor {
		f |= flagAcceptor
	}
	return f
}

// empiricalTerms computes the Trott & Olson pairwise terms; retained at
// reduced weight so pose optimization feels Vina's characteristic
// distance response. For each ligand atom a branch-free pass computes
// the distance to every pocket atom and compacts the ones within the
// cutoff (NaN included, as !(d > pairCutoff)) in ascending pocket
// order; a second pass over them accumulates repulsion, hydrophobic and
// hbond and gathers the two gauss arguments, whose exps one
// tensor.ExpInto call computes per window. Every accumulator adds the
// same terms in the same order as a loop over all pairs would.
func (s *pairScratch) empiricalTerms(mol *chem.Mol) float64 {
	var gauss1, gauss2, repulsion, hydrophobic, hbond float64
	px, py, pz := s.px, s.py[:len(s.px)], s.pz[:len(s.px)]
	pflags, pairD, pairF := s.pflags[:len(px)], s.pairD[:len(px)], s.pairF[:len(px)]
	args := s.args
	na := 0
	for _, la := range s.lig {
		pos := mol.Atoms[la.i].Pos
		n := 0
		for j := range px {
			dx, dy, dz := pos.X-px[j], pos.Y-py[j], pos.Z-pz[j]
			d := math.Sqrt((dx*dx + dy*dy) + dz*dz)
			pairD[n], pairF[n] = d, pflags[j]&la.want
			keep := 1
			if d > pairCutoff {
				keep = 0
			}
			n += keep
		}
		for k, d := range pairD[:n] {
			// Surface distance relative to summed vdW radii (protein
			// pseudo-atoms use a generic 1.7 A radius).
			sd := d - la.radius
			if na == len(args) {
				gauss1, gauss2 = sumGauss(args, gauss1, gauss2)
				na = 0
			}
			args[na] = -(sd / 0.5) * (sd / 0.5)
			args[na+1] = -((sd - 3) / 2) * ((sd - 3) / 2)
			na += 2
			if sd < 0 {
				repulsion += sd * sd
			}
			f := pairF[k]
			if f&flagHydrophobic != 0 {
				hydrophobic += slope(sd, 0.5, 1.5)
			}
			if f&(flagDonor|flagAcceptor) != 0 {
				hbond += slope(sd, -0.7, 0)
			}
		}
	}
	gauss1, gauss2 = sumGauss(args[:na], gauss1, gauss2)
	inter := wGauss1*gauss1 + wGauss2*gauss2 + wRepulsion*repulsion +
		wHydrophobic*hydrophobic + wHBond*hbond
	rotors := float64(mol.RotatableBonds())
	return inter / (1 + wRotor*rotors)
}

// sumGauss replaces args, gauss1 and gauss2 arguments interleaved, by
// their exps and adds them to the two sums in order.
func sumGauss(args []float64, gauss1, gauss2 float64) (float64, float64) {
	tensor.ExpInto(args, args)
	for i := 0; i+1 < len(args); i += 2 {
		gauss1 += args[i]
		gauss2 += args[i+1]
	}
	return gauss1, gauss2
}

// slope is Vina's piecewise-linear interpolation: 1 below good, 0
// above bad.
func slope(x, good, bad float64) float64 {
	if x <= good {
		return 1
	}
	if x >= bad {
		return 0
	}
	return (bad - x) / (bad - good)
}
