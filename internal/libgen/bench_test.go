package libgen

import "testing"

// BenchmarkMolByID resolves and prepares one compound per operation
// (import through the library's native SDF or SMILES format, desalt,
// protonate, embed), cycling over IDs from all four libraries: the
// per-compound preparation cost of a submission that names compounds
// by ID.
func BenchmarkMolByID(b *testing.B) {
	b.ReportAllocs()
	var ids []string
	for _, l := range All() {
		for i := 0; i < 4; i++ {
			ids = append(ids, l.ID(i))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Preparation may reject a compound; a rejection costs what a
		// resolution costs up to the point it fails.
		_, _ = MolByID(ids[i%len(ids)])
	}
}
