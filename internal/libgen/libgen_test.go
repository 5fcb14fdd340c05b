package libgen

import (
	"math/rand"
	"strings"
	"testing"

	"deepfusion/internal/chem"
)

func TestRandomSMILESParses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Profile{MinFragments: 1, MaxFragments: 4, AromaticBias: 0.6, HeteroBias: 0.5, ChainBias: 0.4, SaltProb: 0.2}
	for i := 0; i < 200; i++ {
		s := RandomSMILES(rng, p)
		if _, err := chem.ParseSMILES(s); err != nil {
			t.Fatalf("generated invalid SMILES %q: %v", s, err)
		}
	}
}

func TestRandomSMILESDruglike(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := Profile{MinFragments: 1, MaxFragments: 3, AromaticBias: 0.6, HeteroBias: 0.5, RequireDruglike: true}
	pass := 0
	const n = 100
	for i := 0; i < n; i++ {
		s := RandomSMILES(rng, p)
		m, err := chem.ParseSMILES(s)
		if err != nil {
			t.Fatal(err)
		}
		if chem.Lipinski(chem.ComputeDescriptors(m)) {
			pass++
		}
	}
	if pass < n*9/10 {
		t.Fatalf("only %d/%d drug-like with RequireDruglike", pass, n)
	}
}

func TestCompoundDeterministic(t *testing.T) {
	for _, l := range All() {
		a := l.Compound(7)
		b := l.Compound(7)
		if a != b {
			t.Fatalf("%s: compound 7 not deterministic", l.Name)
		}
	}
}

func TestCompoundsDiverse(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Enamine.Compound(i)] = true
	}
	if len(seen) < 60 {
		t.Fatalf("only %d distinct compounds in first 100", len(seen))
	}
}

func TestCompoundOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ZINC.Compound(ZINC.Size)
}

func TestLibrarySizes(t *testing.T) {
	if TotalSize() <= 0 || TotalSize() > 100000 {
		t.Fatalf("scaled total = %d out of expected band", TotalSize())
	}
	if len(All()) != 4 {
		t.Fatal("must expose exactly 4 libraries")
	}
}

func TestLibraryFormats(t *testing.T) {
	if ZINC.Format != FormatSDF2D || ChEMBL.Format != FormatSDF2D {
		t.Fatal("ZINC and ChEMBL ship 2D SDF in the paper")
	}
	if EMolecules.Format != FormatSMILES || Enamine.Format != FormatSMILES {
		t.Fatal("eMolecules and Enamine ship SMILES in the paper")
	}
}

func TestLibraryMolPrepared(t *testing.T) {
	ok := 0
	for i := 0; i < 30; i++ {
		m, err := ZINC.Mol(i)
		if err != nil {
			continue
		}
		ok++
		if m.ContainsMetal() {
			t.Fatal("prepared molecule contains metal")
		}
		if m.Name == "" {
			t.Fatal("prepared molecule lost its identity")
		}
		if len(m.Fragments()) != 1 {
			t.Fatal("prepared molecule still multi-fragment")
		}
	}
	if ok < 25 {
		t.Fatalf("only %d/30 compounds survived preparation", ok)
	}
}

func TestLibraryID(t *testing.T) {
	if ZINC.ID(0) != "zinc-world-approved:0" {
		t.Fatalf("ID = %q", ZINC.ID(0))
	}
	if Enamine.ID(12345) != "enamine:12345" {
		t.Fatalf("ID = %q", Enamine.ID(12345))
	}
}

func TestZINCSaltsPresent(t *testing.T) {
	// The ZINC profile emits salt forms that preparation must strip.
	nSalt := 0
	for i := 0; i < 200; i++ {
		m, err := chem.ParseSMILES(ZINC.Compound(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Fragments()) > 1 {
			nSalt++
		}
	}
	if nSalt == 0 {
		t.Fatal("ZINC profile should produce some salt forms")
	}
}

func TestProfileShapesDiffer(t *testing.T) {
	// eMolecules (diverse) should produce a higher property variance
	// than Enamine (drug-like filtered). Use MW spread as the probe.
	var mwE, mwEn []float64
	for i := 0; i < 150; i++ {
		if m, err := chem.ParseSMILES(EMolecules.Compound(i)); err == nil {
			mwE = append(mwE, m.Weight())
		}
		if m, err := chem.ParseSMILES(Enamine.Compound(i)); err == nil {
			mwEn = append(mwEn, m.Weight())
		}
	}
	maxE, maxEn := 0.0, 0.0
	for _, v := range mwE {
		if v > maxE {
			maxE = v
		}
	}
	for _, v := range mwEn {
		if v > maxEn {
			maxEn = v
		}
	}
	if maxEn > 900 {
		t.Fatalf("Enamine produced a %v Da compound despite drug-like filter", maxEn)
	}
}

func TestRecordNativeFormats(t *testing.T) {
	// ZINC ships SDF; the record must be a parseable V2000 block.
	rec, err := ZINC.Record(3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec, "V2000") || !strings.Contains(rec, "$$$$") {
		t.Fatalf("ZINC record is not SDF:\n%s", rec)
	}
	mols, err := chem.ParseSDF(strings.NewReader(rec))
	if err != nil || len(mols) != 1 {
		t.Fatalf("ZINC SDF record unparseable: %v", err)
	}
	// Enamine ships SMILES; the record must parse as SMILES.
	rec2, err := Enamine.Record(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chem.ParseSMILES(rec2); err != nil {
		t.Fatalf("Enamine record is not SMILES: %v", err)
	}
}

func TestMolThroughNativeFormatsAgree(t *testing.T) {
	// Both import routes end at an equivalent prepared molecule.
	for i := 0; i < 10; i++ {
		m, err := ZINC.Mol(i)
		if err != nil {
			continue
		}
		direct, err := chem.ParseSMILES(ZINC.Compound(i))
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := chem.Prepare(direct, 1)
		if err != nil {
			continue
		}
		if m.NumAtoms() != prepared.NumAtoms() {
			t.Fatalf("compound %d: SDF route %d atoms, SMILES route %d",
				i, m.NumAtoms(), prepared.NumAtoms())
		}
	}
}

func TestDrawUniqueDeck(t *testing.T) {
	deck := Draw(All(), 20)
	if len(deck) != 20 {
		t.Fatalf("deck size %d", len(deck))
	}
	fps := map[chem.Fingerprint]bool{}
	for _, m := range deck {
		fp := chem.ComputeFingerprint(m)
		if fps[fp] {
			t.Fatal("duplicate compound in deck")
		}
		fps[fp] = true
		if m.Name == "" {
			t.Fatal("deck compound without provenance ID")
		}
	}
}
