package featurize

import (
	"fmt"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// pocketSources checks the pocket half of g's node layout against the
// complex it was built from and returns the pocket atom index of each
// pocket node (row NumLigand+k is pocket atom src[k]). The contract:
//   - every pocket node is the source of at least one non-covalent
//     edge, so NumNodes is NumLigand plus the distinct pocket sources;
//   - pocket nodes come in ascending pocket index;
//   - each pocket node's row is its pocket atom's feature row, and every
//     edge it sources spans that atom's distance to the edge's ligand
//     atom.
//
// The atom behind a row is recovered from the geometry alone, not from
// the graph's build scratch: the smallest index after the previous row's
// whose features and distances fit.
func pocketSources(g *Graph, p *target.Pocket, mol *chem.Mol) ([]int, error) {
	nl := g.NumLigand
	if nl != len(mol.Atoms) || g.NumNodes() < nl {
		return nil, fmt.Errorf("NumLigand %d, NumNodes %d for a %d-atom ligand", nl, g.NumNodes(), len(mol.Atoms))
	}
	readers := make([][]Edge, g.NumNodes()-nl)
	for _, e := range g.NonCov {
		if e.From < 0 || e.From >= g.NumNodes() {
			return nil, fmt.Errorf("edge %+v reads no node", e)
		}
		if e.From >= nl {
			readers[e.From-nl] = append(readers[e.From-nl], e)
		}
	}
	src := make([]int, len(readers))
	want := make([]float64, NodeFeatures)
	next := 0
	for k, es := range readers {
		if len(es) == 0 {
			return nil, fmt.Errorf("pocket node %d is read by no edge", nl+k)
		}
		src[k] = -1
		for j := next; j < len(p.Atoms) && src[k] < 0; j++ {
			pocketNodeRow(&p.Atoms[j], want)
			if fitsPocketAtom(g.Nodes.Row(nl+k), want, es, mol, p.Atoms[j].Pos) {
				src[k] = j
			}
		}
		if src[k] < 0 {
			return nil, fmt.Errorf("pocket node %d matches no pocket atom after %d", nl+k, next-1)
		}
		next = src[k] + 1
	}
	return src, nil
}

// fitsPocketAtom reports whether a node with this feature row, read by
// these edges, can be the pocket atom with features want at pos.
func fitsPocketAtom(row, want []float64, es []Edge, mol *chem.Mol, pos chem.Vec3) bool {
	for i := range row {
		if row[i] != want[i] {
			return false
		}
	}
	for _, e := range es {
		if mol.Atoms[e.To].Pos.Dist(pos) != e.Dist {
			return false
		}
	}
	return true
}

// inflateGraph returns g in the full-pocket layout: every pocket atom j
// at row NumLigand+j whether an edge reads it or not, and each edge's
// source mapped back to that row. Scoring or training on it is what
// the models did before the graph left out unread pocket nodes.
func inflateGraph(g *Graph, p *target.Pocket, mol *chem.Mol) (*Graph, error) {
	src, err := pocketSources(g, p, mol)
	if err != nil {
		return nil, err
	}
	nl := g.NumLigand
	full := &Graph{
		Nodes:     tensor.New(nl+len(p.Atoms), NodeFeatures),
		NumLigand: nl,
		Covalent:  append([]Edge(nil), g.Covalent...),
		NonCov:    append([]Edge(nil), g.NonCov...),
	}
	copy(full.Nodes.Data, g.Nodes.Data[:nl*NodeFeatures])
	for j := range p.Atoms {
		pocketNodeRow(&p.Atoms[j], full.Nodes.Row(nl+j))
	}
	for k := range full.NonCov {
		if from := full.NonCov[k].From; from >= nl {
			full.NonCov[k].From = nl + src[from-nl]
		}
	}
	return full, nil
}
