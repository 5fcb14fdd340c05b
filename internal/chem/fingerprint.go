package chem

import "hash/fnv"

// FingerprintBits is the fixed fingerprint width (a 2048-bit hashed
// path fingerprint, the workhorse of compound dedup and similarity
// search in screening pipelines).
const FingerprintBits = 2048

// Fingerprint is a hashed-path molecular fingerprint.
type Fingerprint [FingerprintBits / 64]uint64

// ComputeFingerprint enumerates all linear atom paths of length 1-3
// bonds (typed by element, aromaticity and bond order) and hashes each
// into the bit vector — a compact stand-in for the Daylight-style
// fingerprints used to deduplicate multi-library compound sets.
func ComputeFingerprint(m *Mol) Fingerprint {
	var fp Fingerprint
	adj := m.Adjacency()
	setBit := func(key []byte) {
		h := fnv.New64a()
		h.Write(key)
		bit := h.Sum64() % FingerprintBits
		fp[bit/64] |= 1 << (bit % 64)
	}
	atomTag := func(i int) byte {
		a := m.Atoms[i]
		e := Elements[a.Symbol]
		t := byte(e.Number)
		if a.Aromatic {
			t |= 0x80
		}
		return t
	}
	bondTag := func(bi int) byte {
		b := m.Bonds[bi]
		if b.Aromatic {
			return 4
		}
		return byte(b.Order)
	}
	// Length-0 paths: atom types (with charge).
	for i, a := range m.Atoms {
		setBit([]byte{0, atomTag(i), byte(a.Charge + 8)})
	}
	// Paths of 1..3 bonds via DFS; canonicalize direction by comparing
	// the forward and reverse byte strings.
	var walk func(path []int, bondsUsed []int)
	emit := func(path []int, bondsUsed []int) {
		fwd := make([]byte, 0, 2*len(path))
		for k, ai := range path {
			fwd = append(fwd, atomTag(ai))
			if k < len(bondsUsed) {
				fwd = append(fwd, bondTag(bondsUsed[k]))
			}
		}
		rev := make([]byte, len(fwd))
		for i := range fwd {
			rev[i] = fwd[len(fwd)-1-i]
		}
		key := fwd
		for i := range fwd {
			if rev[i] < fwd[i] {
				key = rev
				break
			}
			if rev[i] > fwd[i] {
				break
			}
		}
		setBit(append([]byte{byte(len(bondsUsed))}, key...))
	}
	walk = func(path []int, bondsUsed []int) {
		if len(bondsUsed) > 0 {
			emit(path, bondsUsed)
		}
		if len(bondsUsed) == 3 {
			return
		}
		last := path[len(path)-1]
		for _, e := range adj[last] {
			// no immediate backtracking or revisits
			seen := false
			for _, p := range path {
				if p == e.Nbr {
					seen = true
					break
				}
			}
			if seen {
				continue
			}
			walk(append(path, e.Nbr), append(bondsUsed, e.Bond))
		}
	}
	for i := range m.Atoms {
		walk([]int{i}, nil)
	}
	return fp
}
