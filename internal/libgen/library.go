package libgen

import (
	"fmt"
	"math/rand"
	"strings"

	"deepfusion/internal/chem"
)

// InputFormat records how a library ships its structures; the paper
// downloaded SMILES from eMolecules/Enamine and 2D SDF from
// ZINC/ChEMBL. Both routes converge after MOE preparation.
type InputFormat int

// Input formats.
const (
	FormatSMILES InputFormat = iota
	FormatSDF2D
)

// Library is a deterministic, lazily generated compound collection.
type Library struct {
	Name      string
	Format    InputFormat
	PaperSize int // compounds in the real library (paper Section 4)
	Size      int // compounds in this scaled reproduction
	profile   Profile
}

// Compound returns the SMILES string for index i (0 <= i < Size).
// The same (library, i) pair always yields the same compound.
func (l *Library) Compound(i int) string {
	if i < 0 || i >= l.Size {
		panic("libgen: compound index out of range")
	}
	rng := rand.New(rand.NewSource(seedFor(l.Name, i)))
	return RandomSMILES(rng, l.profile)
}

// ID returns the library-qualified compound identifier, mirroring the
// provenance IDs the screening output records.
func (l *Library) ID(i int) string {
	return l.Name + ":" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// Record returns the compound in the library's native distribution
// format: a 2D SDF block for ZINC and ChEMBL (which ship SDF), or the
// SMILES string for eMolecules and Enamine.
func (l *Library) Record(i int) (string, error) {
	s := l.Compound(i)
	if l.Format == FormatSMILES {
		return s, nil
	}
	m, err := chem.ParseSMILES(s)
	if err != nil {
		return "", err
	}
	m.Name = l.ID(i)
	var buf strings.Builder
	if err := chem.WriteSDF(&buf, m); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// Mol imports compound i through the library's native format (SDF or
// SMILES, as the paper's downloads did), then prepares it (desalt,
// protonate, embed). It returns an error if preparation rejects the
// compound.
func (l *Library) Mol(i int) (*chem.Mol, error) {
	rec, err := l.Record(i)
	if err != nil {
		return nil, err
	}
	var m *chem.Mol
	if l.Format == FormatSMILES {
		m, err = chem.ParseSMILES(rec)
		if err != nil {
			return nil, err
		}
	} else {
		mols, err := chem.ParseSDF(strings.NewReader(rec))
		if err != nil {
			return nil, err
		}
		if len(mols) != 1 {
			return nil, fmt.Errorf("libgen: SDF record for %s holds %d molecules", l.ID(i), len(mols))
		}
		m = mols[0]
	}
	m.Name = l.ID(i)
	prepared, err := chem.Prepare(m, seedFor(l.Name+"/embed", i))
	if err != nil {
		return nil, err
	}
	prepared.Name = m.Name
	return prepared, nil
}

// ScaleFactor is the reduction applied to the real library sizes so a
// full four-library sweep stays laptop-sized. Documented per experiment
// in EXPERIMENTS.md.
const ScaleFactor = 100000

// The four compound sources of the SARS-CoV-2 screen (paper Section 4).
var (
	// ZINC "world-approved 2018": FDA + world-not-FDA approved drugs.
	ZINC = &Library{
		Name: "zinc-world-approved", Format: FormatSDF2D,
		PaperSize: 8000, Size: 2000,
		profile: Profile{MinFragments: 1, MaxFragments: 4, AromaticBias: 0.7, HeteroBias: 0.55, ChainBias: 0.3, SaltProb: 0.15, RequireDruglike: true},
	}
	// ChEMBL bioactives (1.5 million selected in the paper).
	ChEMBL = &Library{
		Name: "chembl", Format: FormatSDF2D,
		PaperSize: 1500000, Size: 1500000 / ScaleFactor,
		profile: Profile{MinFragments: 1, MaxFragments: 5, AromaticBias: 0.8, HeteroBias: 0.5, ChainBias: 0.35, SaltProb: 0.10},
	}
	// eMolecules catalog (18 million drawn in the paper).
	EMolecules = &Library{
		Name: "emolecules", Format: FormatSMILES,
		PaperSize: 18000000, Size: 18000000 / ScaleFactor,
		profile: Profile{MinFragments: 0, MaxFragments: 5, AromaticBias: 0.6, HeteroBias: 0.4, ChainBias: 0.5, SaltProb: 0.05},
	}
	// Enamine synthetically feasible drug-like space (the bulk of the
	// 500M+ total).
	Enamine = &Library{
		Name: "enamine", Format: FormatSMILES,
		PaperSize: 482000000, Size: 482000000 / ScaleFactor,
		profile: Profile{MinFragments: 1, MaxFragments: 4, AromaticBias: 0.65, HeteroBias: 0.5, ChainBias: 0.3, RequireDruglike: true},
	}
)

// All returns the four libraries in the paper's order.
func All() []*Library {
	return []*Library{ZINC, ChEMBL, EMolecules, Enamine}
}

// TotalSize sums the scaled library sizes.
func TotalSize() int {
	n := 0
	for _, l := range All() {
		n += l.Size
	}
	return n
}

// ByName returns the library with the given name, or nil.
func ByName(name string) *Library {
	for _, l := range All() {
		if l.Name == name {
			return l
		}
	}
	return nil
}

// MolByID resolves a library-qualified compound identifier
// ("zinc-world-approved:17") back to its prepared molecule — the
// inverse of Library.ID, used by front doors that accept compound
// references rather than structures.
func MolByID(id string) (*chem.Mol, error) {
	name, idxStr, ok := strings.Cut(id, ":")
	if !ok {
		return nil, fmt.Errorf("libgen: compound ID %q is not library:index", id)
	}
	l := ByName(name)
	if l == nil {
		return nil, fmt.Errorf("libgen: unknown library %q in compound ID %q", name, id)
	}
	idx := 0
	for _, c := range idxStr {
		if c < '0' || c > '9' {
			return nil, fmt.Errorf("libgen: bad compound index in ID %q", id)
		}
		idx = idx*10 + int(c-'0')
	}
	if idxStr == "" || idx >= l.Size {
		return nil, fmt.Errorf("libgen: compound index %q out of range for %s (size %d)", idxStr, name, l.Size)
	}
	return l.Mol(idx)
}
