package dock

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// empiricalTermsRef is empiricalTerms as a plain loop over every
// (ligand atom, pocket atom) pair, with the exp passed in: the
// reference the struct-of-arrays passes must reproduce bit for bit.
func empiricalTermsRef(p *target.Pocket, mol *chem.Mol, exp func(float64) float64) float64 {
	var gauss1, gauss2, repulsion, hydrophobic, hbond float64
	for _, a := range mol.Atoms {
		ea, ok := chem.Elements[a.Symbol]
		if !ok {
			continue
		}
		for _, pa := range p.Atoms {
			d := a.Pos.Dist(pa.Pos)
			if d > pairCutoff {
				continue
			}
			sd := d - (ea.VdwRadius + 1.7)
			gauss1 += exp(-(sd / 0.5) * (sd / 0.5))
			gauss2 += exp(-((sd - 3) / 2) * ((sd - 3) / 2))
			if sd < 0 {
				repulsion += sd * sd
			}
			if ea.Hydrophobic && pa.Hydrophobic {
				hydrophobic += slope(sd, 0.5, 1.5)
			}
			if (ea.Donor && pa.Acceptor) || (ea.Acceptor && pa.Donor) {
				hbond += slope(sd, -0.7, 0)
			}
		}
	}
	inter := wGauss1*gauss1 + wGauss2*gauss2 + wRepulsion*repulsion +
		wHydrophobic*hydrophobic + wHBond*hbond
	return inter / (1 + wRotor*float64(mol.RotatableBonds()))
}

// mathExpIsTensorExp reports whether math.Exp gives tensor.Exp's bits
// here, as it does on amd64 with FMA.
func mathExpIsTensorExp() bool {
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 100_000; i++ {
		x := 10 * rng.NormFloat64()
		if math.Float64bits(math.Exp(x)) != math.Float64bits(tensor.Exp(x)) {
			return false
		}
	}
	return true
}

// sameBits reports whether a and b have the same bits or are both NaN:
// which operand's NaN an operation passes on depends on how the
// compiler ordered a commutative operation's registers.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestEmpiricalTermsMatchReference scores random poses — inside the
// pocket, straddling the cutoff, far outside, with an atom of unknown
// element, with a NaN coordinate, and large enough to span several
// exp windows — through a Dock-style reused scratch, and once through
// VinaScore, and checks them against the plain pair loop bit for bit:
// with tensor.Exp on every host, and with math.Exp where it agrees.
func TestEmpiricalTermsMatchReference(t *testing.T) {
	exps := []struct {
		name string
		exp  func(float64) float64
	}{{"tensor.Exp", tensor.Exp}}
	if mathExpIsTensorExp() {
		exps = append(exps, struct {
			name string
			exp  func(float64) float64
		}{"math.Exp", math.Exp})
	}
	rng := rand.New(rand.NewSource(35))
	symbols := []string{"C", "C", "N", "O", "S", "F", "Cl", "P"}
	for trial := 0; trial < 300; trial++ {
		p := target.All()[trial%4]
		n := 1 + rng.Intn(12)
		if trial%10 == 0 {
			n = 60 + rng.Intn(40) // more in-cutoff pairs than one window holds
		}
		m := &chem.Mol{Name: fmt.Sprintf("ref-%d", trial)}
		spread := []float64{1, 3, 6, 20}[rng.Intn(4)]
		for i := 0; i < n; i++ {
			m.Atoms = append(m.Atoms, chem.Atom{
				Symbol: symbols[rng.Intn(len(symbols))],
				Pos:    chem.Vec3{X: spread * rng.NormFloat64(), Y: spread * rng.NormFloat64(), Z: spread * rng.NormFloat64()},
			})
			if i > 0 {
				m.Bonds = append(m.Bonds, chem.Bond{A: i - 1, B: i, Order: 1})
			}
		}
		switch trial % 7 {
		case 3:
			m.Atoms[rng.Intn(n)].Symbol = "Xx"
		case 5:
			m.Atoms[rng.Intn(n)].Pos.Y = math.NaN()
		}
		sc := newPairScratch(p, m)
		for pose := 0; pose < 3; pose++ {
			got := sc.empiricalTerms(m)
			if pose == 0 {
				want := -kcalPerPK*p.BiasedAffinity(m, vinaBias) + 0.15*empiricalTermsRef(p, m, tensor.Exp)
				if v := VinaScore(p, m); !sameBits(v, want) {
					t.Fatalf("trial %d: VinaScore = %v, reference %v", trial, v, want)
				}
			}
			for _, e := range exps {
				if want := empiricalTermsRef(p, m, e.exp); !sameBits(got, want) {
					t.Fatalf("trial %d pose %d (%d atoms, %s): empiricalTerms = %v (%#016x), reference with %s = %v (%#016x)",
						trial, pose, n, p.Name, got, math.Float64bits(got), e.name, want, math.Float64bits(want))
				}
			}
			jitter(m, rng, 1.5, 0.5)
		}
	}
}
