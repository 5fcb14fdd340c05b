package chem

import (
	"math"
	"strings"
	"testing"
)

func descriptorsFor(t *testing.T, smiles string) Descriptors {
	t.Helper()
	m, err := ParseSMILES(smiles)
	if err != nil {
		t.Fatalf("ParseSMILES(%q): %v", smiles, err)
	}
	return ComputeDescriptors(m)
}

func TestTPSANitrogenContributions(t *testing.T) {
	// Each nitrogen environment has its own polar-surface contribution;
	// the TPSA ordering must reflect it.
	cation := descriptorsFor(t, "C[NH3+]")    // charged N: 27.6
	primary := descriptorsFor(t, "CN")        // NH2: 26.0
	secondary := descriptorsFor(t, "CNC")     // NH: 12.0
	tertiary := descriptorsFor(t, "CN(C)C")   // no H: 3.2
	aromatic := descriptorsFor(t, "c1ccncc1") // pyridine N: 12.9

	if !(cation.TPSA > primary.TPSA && primary.TPSA > secondary.TPSA && secondary.TPSA > tertiary.TPSA) {
		t.Fatalf("nitrogen TPSA ordering wrong: cation %.1f, NH2 %.1f, NH %.1f, NR3 %.1f",
			cation.TPSA, primary.TPSA, secondary.TPSA, tertiary.TPSA)
	}
	if math.Abs(aromatic.TPSA-12.9) > 1e-9 {
		t.Fatalf("pyridine TPSA = %.1f, want 12.9", aromatic.TPSA)
	}
}

func TestTPSAOxygenAndSulfur(t *testing.T) {
	hydroxyl := descriptorsFor(t, "CO") // OH: 20.2
	ether := descriptorsFor(t, "COC")   // no H: 17.1
	carboxylate := descriptorsFor(t, "CC(=O)[O-]")
	thioether := descriptorsFor(t, "CSC") // S: 25.3
	if hydroxyl.TPSA <= ether.TPSA {
		t.Fatalf("OH TPSA (%.1f) should exceed ether TPSA (%.1f)", hydroxyl.TPSA, ether.TPSA)
	}
	if carboxylate.TPSA <= hydroxyl.TPSA {
		t.Fatalf("carboxylate TPSA (%.1f) should exceed a single OH (%.1f)", carboxylate.TPSA, hydroxyl.TPSA)
	}
	if thioether.TPSA != 25.3 {
		t.Fatalf("thioether TPSA = %.1f, want 25.3", thioether.TPSA)
	}
}

func TestLogPHalogenLadder(t *testing.T) {
	// Heavier halogens are more lipophilic: logP(CI) > logP(CBr) >
	// logP(CCl) > logP(CF).
	f := descriptorsFor(t, "CF").LogP
	cl := descriptorsFor(t, "CCl").LogP
	br := descriptorsFor(t, "CBr").LogP
	i := descriptorsFor(t, "CI").LogP
	if !(i > br && br > cl && cl > f) {
		t.Fatalf("halogen logP ladder broken: F %.2f, Cl %.2f, Br %.2f, I %.2f", f, cl, br, i)
	}
	// Charged atoms reduce logP.
	neutral := descriptorsFor(t, "CN").LogP
	charged := descriptorsFor(t, "C[NH3+]").LogP
	if charged >= neutral {
		t.Fatalf("protonated amine logP (%.2f) should be below neutral (%.2f)", charged, neutral)
	}
}

func TestLogPAromaticCarbonExceedsAliphatic(t *testing.T) {
	benzene := descriptorsFor(t, "c1ccccc1")
	hexane := descriptorsFor(t, "CCCCCC")
	if benzene.LogP/6 <= hexane.LogP/6 {
		t.Fatalf("per-carbon logP: aromatic %.3f should exceed aliphatic %.3f",
			benzene.LogP/6, hexane.LogP/6)
	}
	// Phosphorus is polar.
	if p := descriptorsFor(t, "CP").LogP; p >= descriptorsFor(t, "CC").LogP {
		t.Fatalf("phosphorus should reduce logP, got %.2f", p)
	}
}

func TestMolStringSummarizes(t *testing.T) {
	m, err := ParseSMILES("CCO")
	if err != nil {
		t.Fatal(err)
	}
	m.Name = "ethanol"
	s := m.String()
	if !strings.Contains(s, "ethanol") {
		t.Fatalf("String() should include the name: %q", s)
	}
}
