package chem

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Vec3 is a 3D coordinate in Angstroms.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and o.
func (v Vec3) Dot(o Vec3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and o.
func (v Vec3) Dist(o Vec3) float64 { return v.Sub(o).Norm() }

// Atom is one atom of a molecule.
type Atom struct {
	Symbol   string
	Charge   int
	Aromatic bool
	NumH     int // implicit hydrogens
	Pos      Vec3
}

// Bond connects atoms A and B (indices into Mol.Atoms).
type Bond struct {
	A, B     int
	Order    int // 1, 2 or 3
	Aromatic bool
}

// Mol is a small molecule: atoms, bonds, and an optional identity.
type Mol struct {
	Name   string
	SMILES string // source string, if parsed from SMILES
	Atoms  []Atom
	Bonds  []Bond

	// rotCache memoizes RotatableBonds as count+1 (0 = not yet
	// computed). Topology is fixed once a Mol is built — only atom
	// positions change after parsing — so the count is computed at most
	// once per Mol value instead of re-deriving ring membership on every
	// scoring call. Clone starts a fresh memo (a copied one would go
	// stale if the caller then edits Bonds), so a loop that scores many
	// conformations should move atoms within a few reused buffers, as
	// dock.Dock does, rather than score a Clone per step. Accessed
	// atomically; the stored value is a pure function of Bonds, so
	// concurrent recomputation is idempotent.
	rotCache int32
}

// NumAtoms returns the heavy-atom count.
func (m *Mol) NumAtoms() int { return len(m.Atoms) }

// Adjacency returns, for each atom, the list of (neighbor, bond index)
// pairs.
func (m *Mol) Adjacency() [][]AdjEntry {
	adj := make([][]AdjEntry, len(m.Atoms))
	for bi, b := range m.Bonds {
		adj[b.A] = append(adj[b.A], AdjEntry{Nbr: b.B, Bond: bi})
		adj[b.B] = append(adj[b.B], AdjEntry{Nbr: b.A, Bond: bi})
	}
	return adj
}

// AdjEntry is one adjacency-list edge.
type AdjEntry struct {
	Nbr  int // neighbor atom index
	Bond int // bond index
}

// Weight returns the molecular weight in Daltons, including implicit
// hydrogens.
func (m *Mol) Weight() float64 {
	w := 0.0
	hMass := Elements["H"].Mass
	for _, a := range m.Atoms {
		e, ok := Elements[a.Symbol]
		if !ok {
			continue
		}
		w += e.Mass + float64(a.NumH)*hMass
	}
	return w
}

// NetCharge returns the sum of formal charges.
func (m *Mol) NetCharge() int {
	c := 0
	for _, a := range m.Atoms {
		c += a.Charge
	}
	return c
}

// ContainsMetal reports whether any atom is metallic (these ligands are
// removed in the MOE preparation step).
func (m *Mol) ContainsMetal() bool {
	for _, a := range m.Atoms {
		if e, ok := Elements[a.Symbol]; ok && e.Metal {
			return true
		}
	}
	return false
}

// Fragments partitions the molecule into connected components, used by
// salt stripping. Each returned Mol has remapped atom/bond indices.
func (m *Mol) Fragments() []*Mol {
	n := len(m.Atoms)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	adj := m.Adjacency()
	nc := 0
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		stack := []int{s}
		comp[s] = nc
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range adj[a] {
				if comp[e.Nbr] == -1 {
					comp[e.Nbr] = nc
					stack = append(stack, e.Nbr)
				}
			}
		}
		nc++
	}
	if nc == 1 {
		return []*Mol{m}
	}
	frags := make([]*Mol, nc)
	remap := make([]int, n)
	for c := 0; c < nc; c++ {
		frags[c] = &Mol{Name: m.Name}
	}
	for i, a := range m.Atoms {
		c := comp[i]
		remap[i] = len(frags[c].Atoms)
		frags[c].Atoms = append(frags[c].Atoms, a)
	}
	for _, b := range m.Bonds {
		c := comp[b.A]
		frags[c].Bonds = append(frags[c].Bonds, Bond{A: remap[b.A], B: remap[b.B], Order: b.Order, Aromatic: b.Aromatic})
	}
	return frags
}

// RingBonds reports, for each bond, whether it participates in a cycle.
// A bond is cyclic iff its endpoints remain connected when the bond is
// removed.
func (m *Mol) RingBonds() []bool {
	adj := m.Adjacency()
	inRing := make([]bool, len(m.Bonds))
	for bi, b := range m.Bonds {
		inRing[bi] = m.connectedWithout(adj, b.A, b.B, bi)
	}
	return inRing
}

func (m *Mol) connectedWithout(adj [][]AdjEntry, from, to, skipBond int) bool {
	seen := make([]bool, len(m.Atoms))
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a == to {
			return true
		}
		for _, e := range adj[a] {
			if e.Bond == skipBond || seen[e.Nbr] {
				continue
			}
			seen[e.Nbr] = true
			stack = append(stack, e.Nbr)
		}
	}
	return false
}

// NumRings returns the circuit rank (bonds - atoms + components), the
// standard ring count for descriptors.
func (m *Mol) NumRings() int {
	return len(m.Bonds) - len(m.Atoms) + len(m.Fragments())
}

// RotatableBonds counts single, acyclic bonds between two heavy atoms
// that each have at least one other heavy neighbor — the standard
// definition used in drug-likeness filters and Vina's rotor penalty.
// The count is cached on the molecule: rescoring paths call this per
// pose, and the ring-membership derivation would otherwise dominate
// their allocation profile.
func (m *Mol) RotatableBonds() int {
	if c := atomic.LoadInt32(&m.rotCache); c != 0 {
		return int(c - 1)
	}
	n := m.rotatableBonds()
	atomic.StoreInt32(&m.rotCache, int32(n)+1)
	return n
}

func (m *Mol) rotatableBonds() int {
	adj := m.Adjacency()
	inRing := m.RingBonds()
	n := 0
	for bi, b := range m.Bonds {
		if b.Order != 1 || b.Aromatic || inRing[bi] {
			continue
		}
		if len(adj[b.A]) > 1 && len(adj[b.B]) > 1 {
			n++
		}
	}
	return n
}

// Centroid returns the mean heavy-atom position.
func (m *Mol) Centroid() Vec3 {
	var c Vec3
	if len(m.Atoms) == 0 {
		return c
	}
	for _, a := range m.Atoms {
		c = c.Add(a.Pos)
	}
	return c.Scale(1 / float64(len(m.Atoms)))
}

// Translate shifts every atom by d.
func (m *Mol) Translate(d Vec3) {
	for i := range m.Atoms {
		m.Atoms[i].Pos = m.Atoms[i].Pos.Add(d)
	}
}

// Clone returns a deep copy of the molecule.
func (m *Mol) Clone() *Mol {
	c := &Mol{Name: m.Name, SMILES: m.SMILES}
	c.Atoms = append([]Atom(nil), m.Atoms...)
	c.Bonds = append([]Bond(nil), m.Bonds...)
	return c
}

// String summarizes the molecule.
func (m *Mol) String() string {
	return fmt.Sprintf("Mol(%s atoms=%d bonds=%d mw=%.1f)", m.Name, len(m.Atoms), len(m.Bonds), m.Weight())
}
