package chem

import "testing"

// FuzzParseSMILES feeds arbitrary strings to the SMILES parser, which
// reads inline structures straight from POST /v1/submit. No input may
// panic it, and every molecule it accepts must be one the rest of the
// funnel can index: at least one atom, and every bond joining two
// distinct atoms that exist. Besides the seeds below, the corpus under
// testdata/fuzz/FuzzParseSMILES holds parser edge cases and every
// input the fuzzer has found failing; plain go test runs them all.
func FuzzParseSMILES(f *testing.F) {
	for _, s := range []string{
		"CCO",
		"c1ccccc1",
		"CC(=O)Oc1ccccc1C(=O)O",
		"[NH3+]CC(=O)[O-]",
		"C1CCC2CCCCC2C1",
		"C%12CC%12",
		"CCO.[Na+]",
		"[13CH4]",
		"[C@@H](F)(Cl)Br",
		"[Fe+2]",
		"F/C=C\\F",
		"c1cc:cc1",
		"C(",
		"[C",
		"%1",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseSMILES(s)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil molecule returned alongside error")
			}
			return
		}
		if len(m.Atoms) == 0 {
			t.Fatalf("%q: accepted a molecule with no atoms", s)
		}
		for i, b := range m.Bonds {
			if b.A < 0 || b.A >= len(m.Atoms) || b.B < 0 || b.B >= len(m.Atoms) {
				t.Fatalf("%q: bond %d (%d-%d) out of range for %d atoms", s, i, b.A, b.B, len(m.Atoms))
			}
			if b.A == b.B {
				t.Fatalf("%q: bond %d joins atom %d to itself", s, i, b.A)
			}
		}
	})
}
