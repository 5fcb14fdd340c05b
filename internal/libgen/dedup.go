package libgen

import (
	"deepfusion/internal/chem"
)

// Draw assembles a deduplicated screening deck of n compounds taken
// round-robin from the given libraries, skipping preparation failures
// and duplicates (exact fingerprint matches).
func Draw(libs []*Library, n int) []*chem.Mol {
	var mols []*chem.Mol
	fps := map[chem.Fingerprint]bool{}
	for i := 0; len(mols) < n; i++ {
		lib := libs[i%len(libs)]
		idx := (i / len(libs)) % lib.Size
		m, err := lib.Mol(idx)
		if err != nil {
			continue
		}
		fp := chem.ComputeFingerprint(m)
		if fps[fp] {
			continue
		}
		fps[fp] = true
		mols = append(mols, m)
		if i > 50*n { // safety: libraries exhausted of unique compounds
			break
		}
	}
	return mols
}
