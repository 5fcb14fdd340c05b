// Package chem implements the small-molecule chemistry substrate of the
// screening pipeline: a molecular data model, a SMILES reader/writer,
// the MOE-style ligand preparation steps (salt stripping, protonation
// at pH 7, 3D embedding, descriptor calculation), and the properties
// the featurizers and scoring functions consume.
package chem

// Element describes the per-element data used by featurization and
// scoring: mass, van-der-Waals radius, electronegativity and coarse
// pharmacophore tendencies.
type Element struct {
	Symbol      string
	Number      int
	Mass        float64 // Daltons
	VdwRadius   float64 // Angstroms
	EN          float64 // Pauling electronegativity
	Valence     int     // default bonding valence
	Metal       bool
	Hydrophobic bool // carbon-like apolar
	Donor       bool // can donate H-bonds when protonated
	Acceptor    bool // can accept H-bonds
}

// Elements lists the species handled by the pipeline. The organic
// subset plus common salt counter-ions (for the MOE-style desalting
// step) and generic metals.
var Elements = map[string]Element{
	"H":  {Symbol: "H", Number: 1, Mass: 1.008, VdwRadius: 1.20, EN: 2.20, Valence: 1},
	"B":  {Symbol: "B", Number: 5, Mass: 10.81, VdwRadius: 1.92, EN: 2.04, Valence: 3},
	"C":  {Symbol: "C", Number: 6, Mass: 12.011, VdwRadius: 1.70, EN: 2.55, Valence: 4, Hydrophobic: true},
	"N":  {Symbol: "N", Number: 7, Mass: 14.007, VdwRadius: 1.55, EN: 3.04, Valence: 3, Donor: true, Acceptor: true},
	"O":  {Symbol: "O", Number: 8, Mass: 15.999, VdwRadius: 1.52, EN: 3.44, Valence: 2, Donor: true, Acceptor: true},
	"F":  {Symbol: "F", Number: 9, Mass: 18.998, VdwRadius: 1.47, EN: 3.98, Valence: 1, Acceptor: true},
	"P":  {Symbol: "P", Number: 15, Mass: 30.974, VdwRadius: 1.80, EN: 2.19, Valence: 3},
	"S":  {Symbol: "S", Number: 16, Mass: 32.06, VdwRadius: 1.80, EN: 2.58, Valence: 2, Acceptor: true},
	"Cl": {Symbol: "Cl", Number: 17, Mass: 35.45, VdwRadius: 1.75, EN: 3.16, Valence: 1},
	"Br": {Symbol: "Br", Number: 35, Mass: 79.904, VdwRadius: 1.85, EN: 2.96, Valence: 1},
	"I":  {Symbol: "I", Number: 53, Mass: 126.904, VdwRadius: 1.98, EN: 2.66, Valence: 1},
	"Na": {Symbol: "Na", Number: 11, Mass: 22.990, VdwRadius: 2.27, EN: 0.93, Valence: 1, Metal: true},
	"K":  {Symbol: "K", Number: 19, Mass: 39.098, VdwRadius: 2.75, EN: 0.82, Valence: 1, Metal: true},
	"Mg": {Symbol: "Mg", Number: 12, Mass: 24.305, VdwRadius: 1.73, EN: 1.31, Valence: 2, Metal: true},
	"Ca": {Symbol: "Ca", Number: 20, Mass: 40.078, VdwRadius: 2.31, EN: 1.00, Valence: 2, Metal: true},
	"Zn": {Symbol: "Zn", Number: 30, Mass: 65.38, VdwRadius: 1.39, EN: 1.65, Valence: 2, Metal: true},
	"Fe": {Symbol: "Fe", Number: 26, Mass: 55.845, VdwRadius: 1.94, EN: 1.83, Valence: 2, Metal: true},
}

// FeatureChannels is the number of per-atom channels produced by
// AtomChannels, shared by the voxelizer and the graph featurizer.
const FeatureChannels = 8

// AtomChannels encodes an atom of element sym (with formal charge and
// aromaticity) into the 8-channel pharmacophore-style feature vector
// used by both model inputs: carbon/hydrophobic, nitrogen, oxygen,
// sulfur/phosphorus/halogen ("other heavy"), aromatic, H-bond donor,
// H-bond acceptor, formal charge.
func AtomChannels(sym string, charge int, aromatic bool) [FeatureChannels]float64 {
	var ch [FeatureChannels]float64
	e, ok := Elements[sym]
	if !ok {
		return ch
	}
	switch sym {
	case "C":
		ch[0] = 1
	case "N":
		ch[1] = 1
	case "O":
		ch[2] = 1
	default:
		ch[3] = 1
	}
	if aromatic {
		ch[4] = 1
	}
	if e.Donor && charge >= 0 {
		ch[5] = 1
	}
	if e.Acceptor {
		ch[6] = 1
	}
	ch[7] = float64(charge)
	return ch
}
