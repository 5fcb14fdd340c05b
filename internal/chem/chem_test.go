package chem

import (
	"math"
	"testing"
)

func mustParse(t *testing.T, s string) *Mol {
	t.Helper()
	m, err := ParseSMILES(s)
	if err != nil {
		t.Fatalf("ParseSMILES(%q): %v", s, err)
	}
	return m
}

func TestParseEthanol(t *testing.T) {
	m := mustParse(t, "CCO")
	if len(m.Atoms) != 3 || len(m.Bonds) != 2 {
		t.Fatalf("atoms=%d bonds=%d", len(m.Atoms), len(m.Bonds))
	}
	if m.Atoms[0].NumH != 3 || m.Atoms[1].NumH != 2 || m.Atoms[2].NumH != 1 {
		t.Fatalf("implicit H = %d,%d,%d; want 3,2,1",
			m.Atoms[0].NumH, m.Atoms[1].NumH, m.Atoms[2].NumH)
	}
	// MW of ethanol is ~46.07.
	if w := m.Weight(); math.Abs(w-46.07) > 0.1 {
		t.Fatalf("MW = %v, want ~46.07", w)
	}
}

func TestParseBenzene(t *testing.T) {
	m := mustParse(t, "c1ccccc1")
	if len(m.Atoms) != 6 || len(m.Bonds) != 6 {
		t.Fatalf("atoms=%d bonds=%d", len(m.Atoms), len(m.Bonds))
	}
	for i, a := range m.Atoms {
		if !a.Aromatic {
			t.Fatalf("atom %d not aromatic", i)
		}
		if a.NumH != 1 {
			t.Fatalf("atom %d NumH = %d, want 1", i, a.NumH)
		}
	}
	for i, b := range m.Bonds {
		if !b.Aromatic {
			t.Fatalf("bond %d not aromatic", i)
		}
	}
	if rings := m.NumRings(); rings != 1 {
		t.Fatalf("rings = %d, want 1", rings)
	}
}

func TestParseAspirin(t *testing.T) {
	m := mustParse(t, "CC(=O)Oc1ccccc1C(=O)O")
	if len(m.Atoms) != 13 {
		t.Fatalf("atoms = %d, want 13", len(m.Atoms))
	}
	// Aspirin MW ~180.16
	if w := m.Weight(); math.Abs(w-180.16) > 0.2 {
		t.Fatalf("MW = %v, want ~180.16", w)
	}
	if r := m.NumRings(); r != 1 {
		t.Fatalf("rings = %d, want 1", r)
	}
}

func TestParseChargedAtoms(t *testing.T) {
	m := mustParse(t, "[NH3+]CC(=O)[O-]") // glycine zwitterion
	if m.Atoms[0].Charge != 1 || m.Atoms[0].NumH != 3 {
		t.Fatalf("N: charge=%d H=%d", m.Atoms[0].Charge, m.Atoms[0].NumH)
	}
	if m.Atoms[4].Charge != -1 {
		t.Fatalf("O-: charge=%d", m.Atoms[4].Charge)
	}
	if m.NetCharge() != 0 {
		t.Fatalf("net charge = %d, want 0", m.NetCharge())
	}
}

func TestParseMultiDigitCharge(t *testing.T) {
	m := mustParse(t, "[Fe+2]")
	if m.Atoms[0].Charge != 2 {
		t.Fatalf("charge = %d, want 2", m.Atoms[0].Charge)
	}
	if !m.ContainsMetal() {
		t.Fatal("Fe should be metal")
	}
}

func TestParseTripleBond(t *testing.T) {
	m := mustParse(t, "C#N")
	if m.Bonds[0].Order != 3 {
		t.Fatalf("order = %d, want 3", m.Bonds[0].Order)
	}
	if m.Atoms[0].NumH != 1 || m.Atoms[1].NumH != 0 {
		t.Fatalf("H = %d,%d; want 1,0", m.Atoms[0].NumH, m.Atoms[1].NumH)
	}
}

func TestParseBranches(t *testing.T) {
	m := mustParse(t, "CC(C)(C)C") // neopentane
	if len(m.Atoms) != 5 || len(m.Bonds) != 4 {
		t.Fatalf("atoms=%d bonds=%d", len(m.Atoms), len(m.Bonds))
	}
	adj := m.Adjacency()
	if len(adj[1]) != 4 {
		t.Fatalf("central carbon degree = %d, want 4", len(adj[1]))
	}
}

func TestParsePercentRingClosure(t *testing.T) {
	a := mustParse(t, "C1CCCCC1")
	b := mustParse(t, "C%12CCCCC%12")
	if len(a.Bonds) != len(b.Bonds) || len(a.Atoms) != len(b.Atoms) {
		t.Fatal("%nn ring closure differs from digit closure")
	}
}

func TestParseDisconnectedFragments(t *testing.T) {
	m := mustParse(t, "CCO.[Na+]")
	frags := m.Fragments()
	if len(frags) != 2 {
		t.Fatalf("fragments = %d, want 2", len(frags))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"C(",
		"C)",
		"C1CC",    // unclosed ring
		"1CC",     // ring closure before atom
		"[Xx]",    // unknown element
		"[C",      // unterminated bracket
		"C$C",     // bad character
		"[123]",   // bracket with no element
		"C11",     // ring bond closing on the atom that opened it
		"C1C1",    // ring bond duplicating the chain bond
		"C12CC12", // two ring bonds between the same atoms
		"C(C1)1",  // ring bond back onto the branch root it hangs from
	}
	for _, s := range bad {
		if _, err := ParseSMILES(s); err == nil {
			t.Fatalf("ParseSMILES(%q) should fail", s)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	cases := []string{
		"CCO",
		"c1ccccc1",
		"CC(=O)Oc1ccccc1C(=O)O",
		"[NH3+]CC(=O)[O-]",
		"C#N",
		"CC(C)(C)C",
		"C1CCC2CCCCC2C1", // fused bicycle (decalin)
		"c1ccc2ccccc2c1", // naphthalene
		"CCO.CC",         // two fragments
		"FC(F)(F)c1ccccc1",
	}
	for _, s := range cases {
		orig := mustParse(t, s)
		out := WriteSMILES(orig)
		back, err := ParseSMILES(out)
		if err != nil {
			t.Fatalf("re-parsing WriteSMILES(%q) = %q: %v", s, out, err)
		}
		if len(back.Atoms) != len(orig.Atoms) || len(back.Bonds) != len(orig.Bonds) {
			t.Fatalf("%q -> %q: atoms %d->%d bonds %d->%d", s, out,
				len(orig.Atoms), len(back.Atoms), len(orig.Bonds), len(back.Bonds))
		}
		if math.Abs(back.Weight()-orig.Weight()) > 1e-6 {
			t.Fatalf("%q -> %q: MW %v -> %v", s, out, orig.Weight(), back.Weight())
		}
		if back.NetCharge() != orig.NetCharge() {
			t.Fatalf("%q -> %q: charge %d -> %d", s, out, orig.NetCharge(), back.NetCharge())
		}
		if back.NumRings() != orig.NumRings() {
			t.Fatalf("%q -> %q: rings %d -> %d", s, out, orig.NumRings(), back.NumRings())
		}
	}
}

func TestStripSaltsKeepsLargest(t *testing.T) {
	m := mustParse(t, "CC(=O)Oc1ccccc1C(=O)[O-].[Na+]")
	out := StripSalts(m)
	if out.ContainsMetal() {
		t.Fatal("salt not stripped")
	}
	if len(out.Atoms) != 13 {
		t.Fatalf("kept %d atoms, want 13", len(out.Atoms))
	}
}

func TestProtonateCarboxylicAcid(t *testing.T) {
	m := mustParse(t, "CC(=O)O") // acetic acid
	ProtonateAtPH7(m)
	found := false
	for _, a := range m.Atoms {
		if a.Symbol == "O" && a.Charge == -1 && a.NumH == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("carboxylic acid not deprotonated at pH 7")
	}
	if m.NetCharge() != -1 {
		t.Fatalf("net charge = %d, want -1", m.NetCharge())
	}
}

func TestProtonateAmine(t *testing.T) {
	m := mustParse(t, "CCN") // ethylamine
	ProtonateAtPH7(m)
	n := m.Atoms[2]
	if n.Charge != 1 || n.NumH != 3 {
		t.Fatalf("amine N: charge=%d H=%d, want +1/3H", n.Charge, n.NumH)
	}
}

func TestAmideNotProtonated(t *testing.T) {
	m := mustParse(t, "CC(=O)NC") // N-methylacetamide
	ProtonateAtPH7(m)
	for _, a := range m.Atoms {
		if a.Symbol == "N" && a.Charge != 0 {
			t.Fatal("amide nitrogen must not be protonated")
		}
	}
}

func TestAromaticAmineNotProtonated(t *testing.T) {
	m := mustParse(t, "c1ccncc1") // pyridine
	ProtonateAtPH7(m)
	for _, a := range m.Atoms {
		if a.Charge != 0 {
			t.Fatal("pyridine must be untouched by the simple pH rule")
		}
	}
}

func TestPrepareRejectsMetalComplex(t *testing.T) {
	m := mustParse(t, "[Zn+2]")
	if _, err := Prepare(m, 1); err == nil {
		t.Fatal("metal-only ligand must be rejected")
	}
}

func TestPrepareFullPipeline(t *testing.T) {
	m := mustParse(t, "CC(=O)Oc1ccccc1C(=O)O.[Na+]")
	out, err := Prepare(m, 42)
	if err != nil {
		t.Fatal(err)
	}
	if out.ContainsMetal() {
		t.Fatal("metal survived prep")
	}
	if out.NetCharge() != -1 {
		t.Fatalf("net charge = %d, want -1 (deprotonated acid)", out.NetCharge())
	}
	// 3D coordinates must be assigned and centered.
	if c := out.Centroid(); c.Norm() > 1e-6 {
		t.Fatalf("centroid = %v, want origin", c)
	}
	anyNonZero := false
	for _, a := range out.Atoms {
		if a.Pos.Norm() > 0.1 {
			anyNonZero = true
		}
	}
	if !anyNonZero {
		t.Fatal("3D embedding produced degenerate coordinates")
	}
	// Input must be unchanged.
	if m.Atoms[len(m.Atoms)-1].Symbol != "Na" {
		t.Fatal("Prepare mutated its input")
	}
}

func TestEmbed3DBondLengths(t *testing.T) {
	m := mustParse(t, "CCCCCC")
	Embed3D(m, 7)
	for _, b := range m.Bonds {
		d := m.Atoms[b.A].Pos.Dist(m.Atoms[b.B].Pos)
		if d < 1.0 || d > 2.2 {
			t.Fatalf("bond length %v out of plausible range", d)
		}
	}
	// Non-bonded atoms should not be collapsed.
	for i := 0; i < len(m.Atoms); i++ {
		for j := i + 2; j < len(m.Atoms); j++ {
			if m.Atoms[i].Pos.Dist(m.Atoms[j].Pos) < 1.0 {
				t.Fatalf("atoms %d,%d collapsed", i, j)
			}
		}
	}
}

func TestEmbed3DDeterministic(t *testing.T) {
	a := mustParse(t, "CC(=O)Oc1ccccc1C(=O)O")
	b := mustParse(t, "CC(=O)Oc1ccccc1C(=O)O")
	Embed3D(a, 99)
	Embed3D(b, 99)
	for i := range a.Atoms {
		if a.Atoms[i].Pos != b.Atoms[i].Pos {
			t.Fatal("embedding not deterministic for equal seeds")
		}
	}
}

func TestRotatableBonds(t *testing.T) {
	cases := []struct {
		smiles string
		want   int
	}{
		{"CCO", 0},         // both bonds involve a terminal heavy atom
		{"c1ccccc1", 0},    // ring
		{"CCCC", 1},        // central bond only
		{"C=CC=C", 1},      // single bond between vinyls
		{"CC(C)(C)C", 0},   // all terminal
		{"c1ccccc1CCO", 2}, // phenethyl alcohol: ring-CH2 and CH2-CH2
	}
	for _, c := range cases {
		m := mustParse(t, c.smiles)
		if got := m.RotatableBonds(); got != c.want {
			t.Fatalf("RotatableBonds(%q) = %d, want %d", c.smiles, got, c.want)
		}
	}
}

func TestDescriptors(t *testing.T) {
	m := mustParse(t, "CC(=O)Oc1ccccc1C(=O)O") // aspirin
	d := ComputeDescriptors(m)
	if math.Abs(d.MolWeight-180.16) > 0.2 {
		t.Fatalf("MW = %v", d.MolWeight)
	}
	if d.HBondDonors != 1 {
		t.Fatalf("HBD = %d, want 1", d.HBondDonors)
	}
	if d.HBondAcceptors != 4 {
		t.Fatalf("HBA = %d, want 4", d.HBondAcceptors)
	}
	if d.Rings != 1 || d.HeavyAtoms != 13 {
		t.Fatalf("rings=%d heavy=%d", d.Rings, d.HeavyAtoms)
	}
	if !Lipinski(d) {
		t.Fatal("aspirin must pass Lipinski")
	}
}

func TestLipinskiViolations(t *testing.T) {
	d := Descriptors{MolWeight: 700, LogP: 6, HBondDonors: 7, HBondAcceptors: 12}
	if Lipinski(d) {
		t.Fatal("4-violation compound must fail Lipinski")
	}
	d2 := Descriptors{MolWeight: 700, LogP: 3}
	if !Lipinski(d2) {
		t.Fatal("single violation is allowed")
	}
}

func TestAtomChannels(t *testing.T) {
	c := AtomChannels("C", 0, false)
	if c[0] != 1 || c[4] != 0 {
		t.Fatalf("C channels = %v", c)
	}
	n := AtomChannels("N", 1, true)
	if n[1] != 1 || n[4] != 1 || n[7] != 1 {
		t.Fatalf("N+ aromatic channels = %v", n)
	}
	o := AtomChannels("O", -1, false)
	if o[2] != 1 || o[6] != 1 || o[7] != -1 {
		t.Fatalf("O- channels = %v", o)
	}
	unknown := AtomChannels("Xx", 0, false)
	for _, v := range unknown {
		if v != 0 {
			t.Fatal("unknown element must produce zero channels")
		}
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Fatal("Add")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Fatal("Sub")
	}
	if a.Dot(b) != 32 {
		t.Fatal("Dot")
	}
	if math.Abs(a.Norm()-math.Sqrt(14)) > 1e-12 {
		t.Fatal("Norm")
	}
	if math.Abs(a.Dist(b)-math.Sqrt(27)) > 1e-12 {
		t.Fatal("Dist")
	}
}

func TestFragmentsPreserveBonds(t *testing.T) {
	m := mustParse(t, "CCO.c1ccccc1")
	frags := m.Fragments()
	total := 0
	for _, f := range frags {
		total += len(f.Bonds)
		for _, b := range f.Bonds {
			if b.A >= len(f.Atoms) || b.B >= len(f.Atoms) {
				t.Fatal("bond index out of range after fragment remap")
			}
		}
	}
	if total != len(m.Bonds) {
		t.Fatalf("bonds lost in fragmentation: %d != %d", total, len(m.Bonds))
	}
}

func TestRingBondsFusedSystem(t *testing.T) {
	m := mustParse(t, "C1CCC2CCCCC2C1") // decalin: all bonds cyclic
	for i, in := range m.RingBonds() {
		if !in {
			t.Fatalf("decalin bond %d not marked cyclic", i)
		}
	}
	m2 := mustParse(t, "CCc1ccccc1")
	rb := m2.RingBonds()
	if rb[0] || rb[1] {
		t.Fatal("chain bonds must not be cyclic")
	}
}

func TestParseStereoMarkersIgnored(t *testing.T) {
	// Stereo bonds and chirality are accepted and discarded (geometry is
	// re-derived in 3D embedding).
	plain := mustParse(t, "FC=CF")
	stereo := mustParse(t, "F/C=C\\F")
	if len(plain.Atoms) != len(stereo.Atoms) || len(plain.Bonds) != len(stereo.Bonds) {
		t.Fatal("stereo markers changed the molecule graph")
	}
	chiral := mustParse(t, "N[C@@H](C)C(=O)O") // alanine with chirality
	if len(chiral.Atoms) != 6 {
		t.Fatalf("chiral atom mis-parsed: %d atoms", len(chiral.Atoms))
	}
}

func TestParseIsotopeIgnored(t *testing.T) {
	m := mustParse(t, "[13C]")
	if m.Atoms[0].Symbol != "C" {
		t.Fatalf("isotope atom symbol %q", m.Atoms[0].Symbol)
	}
}

func TestParseExplicitBondOrders(t *testing.T) {
	m := mustParse(t, "C-C=C#C")
	want := []int{1, 2, 3}
	for i, b := range m.Bonds {
		if b.Order != want[i] {
			t.Fatalf("bond %d order %d, want %d", i, b.Order, want[i])
		}
	}
}

func TestParseRingBondOrder(t *testing.T) {
	// Double-bond ring closure: C1=CC...1 and C=1CC...1 styles.
	m := mustParse(t, "C1=CC=CC=C1") // Kekulé benzene
	doubles := 0
	for _, b := range m.Bonds {
		if b.Order == 2 {
			doubles++
		}
	}
	if doubles != 3 {
		t.Fatalf("Kekulé benzene has %d double bonds, want 3", doubles)
	}
}

func TestWeightEmptyMol(t *testing.T) {
	m := &Mol{}
	if m.Weight() != 0 || m.NumRings() != 0 {
		t.Fatal("empty molecule stats")
	}
	if m.Centroid() != (Vec3{}) {
		t.Fatal("empty centroid")
	}
}

func TestCloneDeep(t *testing.T) {
	m := mustParse(t, "CCO")
	c := m.Clone()
	c.Atoms[0].Symbol = "N"
	c.Bonds[0].Order = 3
	if m.Atoms[0].Symbol != "C" || m.Bonds[0].Order != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestFingerprintIdenticalMolecules(t *testing.T) {
	a := mustParse(t, "CC(=O)Oc1ccccc1C(=O)O")
	b := mustParse(t, "CC(=O)Oc1ccccc1C(=O)O")
	fa, fb := ComputeFingerprint(a), ComputeFingerprint(b)
	if fa != fb {
		t.Fatal("identical molecules must share fingerprints")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	a := ComputeFingerprint(mustParse(t, "c1ccccc1"))
	b := ComputeFingerprint(mustParse(t, "CCCCCC"))
	if a == b {
		t.Fatal("benzene and hexane share a fingerprint")
	}
}

func TestFingerprintEmptyMol(t *testing.T) {
	var fp Fingerprint
	got := ComputeFingerprint(&Mol{})
	if got != fp {
		t.Fatal("empty molecule must give empty fingerprint")
	}
}

func TestFingerprintPopCount(t *testing.T) {
	fp := ComputeFingerprint(mustParse(t, "CC(=O)Oc1ccccc1C(=O)O"))
	n := fp.PopCount()
	if n < 10 || n > 500 {
		t.Fatalf("aspirin sets %d bits; expected a sparse fingerprint", n)
	}
}
