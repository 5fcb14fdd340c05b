// Package target defines the binding sites of the screen — the four
// SARS-CoV-2 pockets of the paper (two Mpro protease sites, two spike
// sites) plus generated synthetic pockets for corpus diversity — and
// the planted binding-affinity oracle that every physics surrogate and
// learned model in this reproduction ultimately reads.
//
// A Pocket is a rigid cloud of typed pseudo-atoms centered on the
// origin (the pocket frame every pose lives in). TrueAffinity is the
// planted ground truth: a smooth, pose-aware function of the
// ligand/pocket chemical complementarity. BiasedAffinity reads the
// same surface through a scoring method's systematic error profile
// (MethodBias) — strong or weak per interaction class, plus a
// deterministic per-compound noise stream — which is how Vina,
// MM/GBSA and the learned models occupy different rungs of the
// correlation ladder the paper measures without sharing any code.
package target

import (
	"math"
	"math/rand"

	"deepfusion/internal/chem"
	"deepfusion/internal/tensor"
)

// PocketAtom is one rigid protein pseudo-atom: a position in the
// pocket frame plus the coarse chemistry the featurizers and physics
// scores read.
type PocketAtom struct {
	Pos         chem.Vec3
	Hydrophobic bool
	Donor       bool
	Acceptor    bool
	Charged     float64 // signed partial charge, e units
}

// Pocket is a binding site: typed pseudo-atoms on a shell around the
// origin and the planted affinity surface the oracle evaluates.
type Pocket struct {
	Name   string
	Atoms  []PocketAtom
	Radius float64 // site radius in Angstroms

	// Planted affinity surface: per-pocket preference weights for the
	// interaction classes (see affinity).
	base                                           float64
	wContact, wHydro, wHBond, wArom, wRot, wCharge float64
}

// MethodBias is a scoring method's systematic error profile: one
// multiplier per interaction class of the planted surface, plus the
// standard deviation of a deterministic per-compound noise stream
// keyed by Tag. A multiplier of 1 everywhere with zero noise recovers
// the ground truth.
type MethodBias struct {
	Tag                                      string
	Contact, Hydro, HBond, Arom, Rot, Charge float64
	Noise                                    float64 // pK units
}

// unbiased is the identity profile used by TrueAffinity.
var unbiased = MethodBias{Contact: 1, Hydro: 1, HBond: 1, Arom: 1, Rot: 1, Charge: 1}

// PlaceLigand translates mol so its centroid sits at the pocket
// center (the origin), the canonical crystal-like pose every stage of
// the pipeline starts from. The molecule is modified in place and
// returned for convenience.
func (p *Pocket) PlaceLigand(m *chem.Mol) *chem.Mol {
	m.Translate(m.Centroid().Scale(-1))
	return m
}

// TrueAffinity returns the planted binding affinity (pK units, higher
// is stronger) of mol posed in the pocket frame. It is deterministic
// and smooth in the pose, so docking searches can hill-climb it.
func (p *Pocket) TrueAffinity(m *chem.Mol) float64 {
	return p.affinity(m, unbiased)
}

// BiasedAffinity returns the planted affinity as seen by a scoring
// method with the given systematic error profile.
func (p *Pocket) BiasedAffinity(m *chem.Mol, b MethodBias) float64 {
	return p.affinity(m, b)
}

// surface accumulates the pose-weighted interaction-class totals of
// mol in the pocket. Each ligand atom contributes with a logistic
// occupancy weight of its distance from the pocket center, so the
// surface decays smoothly as a pose drifts out of the site.
func (p *Pocket) surface(m *chem.Mol) (contact, hydro, hbond, arom, charge float64) {
	for _, a := range m.Atoms {
		e, ok := chem.Elements[a.Symbol]
		if !ok {
			continue
		}
		d := a.Pos.Norm()
		w := 1 / (1 + tensor.Exp((d-p.Radius)/2.0))
		contact += w
		if e.Hydrophobic {
			hydro += w
		}
		if a.Aromatic {
			arom += w
		}
		if e.Donor || e.Acceptor {
			hbond += w
		}
		charge += w * math.Abs(float64(a.Charge))
	}
	return
}

// sat is a saturating transform: linear for small x, asymptote at
// scale, so the oracle rewards complementarity rather than raw size.
func sat(x, scale float64) float64 { return x / (1 + x/scale) }

func (p *Pocket) affinity(m *chem.Mol, b MethodBias) float64 {
	contact, hydro, hbond, arom, charge := p.surface(m)
	rot := float64(m.RotatableBonds())
	pk := p.base +
		b.Contact*p.wContact*sat(contact, 45) +
		b.Hydro*p.wHydro*sat(hydro, 30) +
		b.HBond*p.wHBond*sat(hbond, 10) +
		b.Arom*p.wArom*sat(arom, 12) +
		b.Charge*p.wCharge*sat(charge, 3) -
		b.Rot*p.wRot*sat(rot, 8)
	if b.Noise > 0 {
		pk += b.Noise * hashNormal(p.Name, b.Tag, molKey(m))
	}
	if pk < 2 {
		pk = 2
	}
	if pk > 12 {
		pk = 12
	}
	return pk
}

// molKey is the stable per-compound identity the noise streams hash.
func molKey(m *chem.Mol) string {
	if m.Name != "" {
		return m.Name
	}
	if m.SMILES != "" {
		return m.SMILES
	}
	return chem.WriteSMILES(m)
}

// hashBits is FNV-1a over name + "/" + tag + "\x00" + key, folded
// inline over the component strings: scoring paths draw noise once per
// pose, and hashing without assembling the joined string (or a hasher)
// keeps the warm path allocation-free. Bit-identical to hashing the
// concatenated string through hash/fnv.
func hashBits(name, tag, key string) uint64 {
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= '/'
	h *= prime64
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= prime64
	}
	h *= prime64 // the \x00 separator: XOR with zero is identity
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// hashNormal is a deterministic standard-normal draw per (target,
// method, compound): twelve LCG uniforms summed (Irwin-Hall), as in
// the assay package.
func hashNormal(name, tag, key string) float64 {
	seed := hashBits(name, tag, key)
	s := 0.0
	for i := 0; i < 12; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		s += float64(seed>>11) / float64(1<<53)
	}
	return s - 6
}

// profile parameterizes pocket generation: shape, pseudo-atom
// chemistry frequencies, and the planted surface weights.
type profile struct {
	nAtoms                                         int
	radius                                         float64
	fracHydro, fracDonor, fracAcceptor, fracCharge float64
	base                                           float64
	wContact, wHydro, wHBond, wArom, wRot, wCharge float64
}

// newPocket builds a deterministic pocket from a seed and profile:
// pseudo-atoms scattered on a shell between 0.75 and 1.15 of the site
// radius with chemistry drawn at the profile frequencies.
func newPocket(name string, seed int64, pr profile) *Pocket {
	rng := rand.New(rand.NewSource(seed))
	p := &Pocket{
		Name:     name,
		Radius:   pr.radius,
		base:     pr.base,
		wContact: pr.wContact,
		wHydro:   pr.wHydro,
		wHBond:   pr.wHBond,
		wArom:    pr.wArom,
		wRot:     pr.wRot,
		wCharge:  pr.wCharge,
	}
	for i := 0; i < pr.nAtoms; i++ {
		dir := randUnit(rng)
		r := pr.radius * (0.75 + 0.40*rng.Float64())
		a := PocketAtom{Pos: dir.Scale(r)}
		a.Hydrophobic = rng.Float64() < pr.fracHydro
		if !a.Hydrophobic {
			a.Donor = rng.Float64() < pr.fracDonor
			a.Acceptor = rng.Float64() < pr.fracAcceptor
		}
		if rng.Float64() < pr.fracCharge {
			sign := 1.0
			if rng.Float64() < 0.5 {
				sign = -1
			}
			a.Charged = sign * (0.3 + 0.7*rng.Float64())
		}
		p.Atoms = append(p.Atoms, a)
	}
	return p
}

func randUnit(rng *rand.Rand) chem.Vec3 {
	for {
		v := chem.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		if n := v.Norm(); n > 1e-6 {
			return v.Scale(1 / n)
		}
	}
}

// The four screening targets of the paper (Section 3): two Mpro
// protease sites and two spike sites, with chemistry matching their
// published character — the catalytic protease site is polar and
// hydrogen-bond driven, the spike interface patches are shallower and
// more hydrophobic.
var (
	// Protease1 is the Mpro catalytic site.
	Protease1 = newPocket("protease1", 101, profile{
		nAtoms: 56, radius: 9.0,
		fracHydro: 0.35, fracDonor: 0.45, fracAcceptor: 0.50, fracCharge: 0.30,
		base: 1.1, wContact: 0.12, wHydro: 0.12, wHBond: 0.34, wArom: 0.14, wRot: 0.20, wCharge: 0.30,
	})
	// Protease2 is the Mpro dimer-interface site.
	Protease2 = newPocket("protease2", 102, profile{
		nAtoms: 48, radius: 8.2,
		fracHydro: 0.45, fracDonor: 0.35, fracAcceptor: 0.40, fracCharge: 0.22,
		base: 1.0, wContact: 0.11, wHydro: 0.15, wHBond: 0.26, wArom: 0.16, wRot: 0.24, wCharge: 0.22,
	})
	// Spike1 is the RBD/ACE2 interface patch.
	Spike1 = newPocket("spike1", 103, profile{
		nAtoms: 60, radius: 9.6,
		fracHydro: 0.60, fracDonor: 0.25, fracAcceptor: 0.30, fracCharge: 0.18,
		base: 1.2, wContact: 0.13, wHydro: 0.19, wHBond: 0.16, wArom: 0.20, wRot: 0.18, wCharge: 0.16,
	})
	// Spike2 is the NTD allosteric site.
	Spike2 = newPocket("spike2", 104, profile{
		nAtoms: 52, radius: 8.8,
		fracHydro: 0.55, fracDonor: 0.30, fracAcceptor: 0.30, fracCharge: 0.25,
		base: 1.1, wContact: 0.12, wHydro: 0.16, wHBond: 0.22, wArom: 0.18, wRot: 0.22, wCharge: 0.24,
	})
)

// All returns the four screening targets in canonical order.
func All() []*Pocket {
	return []*Pocket{Protease1, Protease2, Spike1, Spike2}
}

// ByName returns the screening target with the given name, or nil.
func ByName(name string) *Pocket {
	for _, p := range All() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Synthetic generates a deterministic random pocket — the protein
// diversity of the PDBbind-style training corpus beyond the four
// screening sites.
func Synthetic(name string, seed int64) *Pocket {
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	pr := profile{
		nAtoms:       40 + rng.Intn(24),
		radius:       7.8 + 2.0*rng.Float64(),
		fracHydro:    0.30 + 0.35*rng.Float64(),
		fracDonor:    0.20 + 0.30*rng.Float64(),
		fracAcceptor: 0.20 + 0.30*rng.Float64(),
		fracCharge:   0.15 + 0.20*rng.Float64(),
		base:         0.9 + 0.5*rng.Float64(),
		wContact:     0.10 + 0.05*rng.Float64(),
		wHydro:       0.11 + 0.08*rng.Float64(),
		wHBond:       0.18 + 0.16*rng.Float64(),
		wArom:        0.12 + 0.10*rng.Float64(),
		wRot:         0.16 + 0.10*rng.Float64(),
		wCharge:      0.14 + 0.16*rng.Float64(),
	}
	return newPocket(name, seed, pr)
}
