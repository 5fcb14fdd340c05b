package featurize

import (
	"deepfusion/internal/chem"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// NodeFeatures is the per-node feature width of the spatial graph:
// the shared 8 atom channels plus an is-ligand flag and a normalized
// heavy-atom degree.
const NodeFeatures = chem.FeatureChannels + 2

// GraphOptions configures spatial-graph construction; these correspond
// to the SG-CNN rows of Table 1 (K neighbors and distance thresholds
// for the covalent and non-covalent edge types).
type GraphOptions struct {
	CovK            int     // max covalent neighbors per node
	NonCovK         int     // max non-covalent neighbors per node
	CovThreshold    float64 // Angstroms
	NonCovThreshold float64 // Angstroms
}

// DefaultGraphOptions mirrors the converged Table 2 values (K=6/3,
// thresholds 2.24 A / 5.22 A).
func DefaultGraphOptions() GraphOptions {
	return GraphOptions{CovK: 6, NonCovK: 3, CovThreshold: 2.24, NonCovThreshold: 5.22}
}

// Edge is one directed graph edge with its interatomic distance.
type Edge struct {
	From, To int
	Dist     float64
}

// Graph is the SG-CNN input: node features for the ligand atoms
// followed by the pocket pseudo-atoms that some non-covalent edge
// reads, in ascending pocket index, with covalent edges (bond graph,
// ligand only) and non-covalent edges (distance-thresholded K-NN
// including protein contacts). Every edge ends on a ligand node, so a
// pocket atom no edge reads could not reach any output of the SG-CNN
// and is left out of the graph.
type Graph struct {
	Nodes     *tensor.Tensor // [NumNodes, NodeFeatures]
	NumLigand int            // ligand nodes come first
	Covalent  []Edge
	NonCov    []Edge

	// scratch is the build-time working set (candidate lists,
	// bonded-neighbor stamps, degree counts) recycled across rebuilds
	// of this Graph. With it, a warm BuildGraphInto — prefeature-cached
	// or not — performs no heap allocations.
	scratch graphScratch
}

// NumNodes returns the total node count.
func (g *Graph) NumNodes() int { return g.Nodes.Dim(0) }

// cand is one K-NN candidate: neighbor node index and distance.
type cand struct {
	to   int
	dist float64
}

// candLess is the explicit (dist, index) total order every candidate
// sort uses. Ranking by bare distance left equidistant neighbors at
// the mercy of an unstable sort — and an enumeration-order-dependent
// tie would break the cell-list path's byte-equality with brute force.
func candLess(a, b cand) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.to < b.to
}

// sortCands orders candidates by (dist, index). Insertion sort: the
// lists are tiny (bond degree, or the K-NN candidates of one atom) and
// it sorts in place with zero allocations on the warm loader path.
func sortCands(cs []cand) {
	for i := 1; i < len(cs); i++ {
		c := cs[i]
		j := i - 1
		for j >= 0 && candLess(c, cs[j]) {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = c
	}
}

// graphScratch holds per-build working buffers keyed to the ligand:
// heavy-atom degrees, bonded partner lists, covalent candidate lists
// (all indexed by ligand atom), one shared non-covalent candidate
// buffer, and a generation-stamped bonded mark array that replaces the
// old per-call map. pocketRow, indexed by pocket atom, is the
// finishing step's map from pocket atom to compact node row.
type graphScratch struct {
	deg       []int
	nbrs      [][]int32
	covCands  [][]cand
	cands     []cand
	mark      []int
	stamp     int
	pocketRow []int
}

// listsWithLen resizes a slice-of-slices to length n, keeping every
// already-grown sub-slice's capacity and resetting each to empty.
func listsWithLen[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		ns := make([][]T, n)
		copy(ns, s[:cap(s)])
		s = ns
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// prepare sizes the scratch for mol and fills the bond-derived tables
// (degrees and bonded partners).
func (sc *graphScratch) prepare(mol *chem.Mol) {
	nl := len(mol.Atoms)
	if cap(sc.deg) < nl {
		sc.deg = make([]int, nl)
	} else {
		sc.deg = sc.deg[:nl]
		for i := range sc.deg {
			sc.deg[i] = 0
		}
	}
	sc.nbrs = listsWithLen(sc.nbrs, nl)
	sc.covCands = listsWithLen(sc.covCands, nl)
	if cap(sc.mark) < nl {
		// A fresh mark array is all zero and the stamp restarts above
		// it; stale stamps can never collide because the stamp only
		// ever increases within one array's lifetime.
		sc.mark = make([]int, nl)
		sc.stamp = 0
	} else if len(sc.mark) < nl {
		// Re-extending within capacity may expose marks from an older,
		// larger ligand — all of them carry stamps below the current
		// one, so they can never match a future stamp.
		sc.mark = sc.mark[:nl]
	}
	for _, b := range mol.Bonds {
		sc.deg[b.A]++
		sc.deg[b.B]++
		sc.nbrs[b.A] = append(sc.nbrs[b.A], int32(b.B))
		sc.nbrs[b.B] = append(sc.nbrs[b.B], int32(b.A))
	}
}

// BuildGraph constructs the spatial graph for the complex. Covalent
// edges come from the ligand bond list filtered by CovThreshold and
// capped at CovK per node; non-covalent edges connect each ligand atom
// to its nearest non-bonded neighbors (ligand or pocket) within
// NonCovThreshold, capped at NonCovK. Equidistant candidates rank
// ligand atoms before pocket atoms and each by index, so the graph is
// a pure function of the geometry. The graph's nodes are the ligand
// atoms and then only the pocket atoms those edges read.
func BuildGraph(p *target.Pocket, mol *chem.Mol, o GraphOptions) *Graph {
	g := BuildGraphInto(nil, p, mol, o)
	// One-shot graphs (training corpora hold thousands, never rebuilt)
	// do not pay to retain the rebuild scratch; recycled screening
	// slots go through BuildGraphInto directly and keep theirs.
	g.scratch = graphScratch{}
	return g
}

// BuildGraphInto constructs the spatial graph into g, reusing its node
// tensor (when capacity allows), edge slices and build scratch across
// calls — the caller-buffer entry point the screening loaders recycle
// pose slots through. A nil g allocates a fresh graph. Results are
// identical to BuildGraph, and a warm rebuild allocates nothing.
func BuildGraphInto(g *Graph, p *target.Pocket, mol *chem.Mol, o GraphOptions) *Graph {
	g = buildGraphCommon(g, len(p.Atoms), mol, o)
	nl, np := len(mol.Atoms), len(p.Atoms)

	// Non-covalent edges: for each ligand atom, nearest neighbors among
	// all non-bonded atoms (ligand or protein) within the threshold.
	sc := &g.scratch
	for i := 0; i < nl; i++ {
		sc.stamp++
		for _, nb := range sc.nbrs[i] {
			sc.mark[nb] = sc.stamp
		}
		cs := sc.cands[:0]
		pi := mol.Atoms[i].Pos
		for j := 0; j < nl+np; j++ {
			if j == i || (j < nl && sc.mark[j] == sc.stamp) {
				continue
			}
			var pj chem.Vec3
			if j < nl {
				pj = mol.Atoms[j].Pos
			} else {
				pj = p.Atoms[j-nl].Pos
			}
			d := pi.Dist(pj)
			if d <= o.NonCovThreshold {
				cs = append(cs, cand{j, d})
			}
		}
		sc.cands = cs
		g.appendNonCov(i, cs, o)
	}
	g.keepReadPocketNodes(p.Atoms)
	return g
}

// buildGraphCommon is the target-independent half of graph
// construction shared by the brute-force and prefeature-cached paths:
// it sizes g for nl ligand + np pocket nodes, writes the ligand node
// rows, rebuilds the covalent edge list and prepares the bonded
// scratch the non-covalent pass reads. The caller appends the
// non-covalent edges, naming pocket atom j as node nl+j, and then
// calls keepReadPocketNodes. Every node row is written in full, so no
// grid zeroing is needed.
func buildGraphCommon(g *Graph, np int, mol *chem.Mol, o GraphOptions) *Graph {
	nl := len(mol.Atoms)
	if g == nil {
		g = &Graph{}
	}
	g.NumLigand = nl
	if g.Nodes == nil || cap(g.Nodes.Data) < (nl+np)*NodeFeatures {
		g.Nodes = tensor.New(nl+np, NodeFeatures)
	} else {
		g.Nodes.Data = g.Nodes.Data[:(nl+np)*NodeFeatures]
		g.Nodes.Shape = append(g.Nodes.Shape[:0], nl+np, NodeFeatures)
	}
	g.Covalent = g.Covalent[:0]
	g.NonCov = g.NonCov[:0]

	sc := &g.scratch
	sc.prepare(mol)
	for i, a := range mol.Atoms {
		ch := chem.AtomChannels(a.Symbol, a.Charge, a.Aromatic)
		row := g.Nodes.Row(i)
		copy(row, ch[:])
		row[chem.FeatureChannels] = 1 // is-ligand
		row[chem.FeatureChannels+1] = float64(sc.deg[i]) / 4
	}

	// Covalent edges: ligand bonds within the threshold, symmetric,
	// capped at CovK per node (nearest first, ties by index).
	for _, b := range mol.Bonds {
		d := mol.Atoms[b.A].Pos.Dist(mol.Atoms[b.B].Pos)
		if o.CovThreshold > 0 && d > o.CovThreshold {
			continue
		}
		sc.covCands[b.A] = append(sc.covCands[b.A], cand{b.B, d})
		sc.covCands[b.B] = append(sc.covCands[b.B], cand{b.A, d})
	}
	for i, cs := range sc.covCands {
		sortCands(cs)
		k := len(cs)
		if o.CovK > 0 && k > o.CovK {
			k = o.CovK
		}
		for _, c := range cs[:k] {
			g.Covalent = append(g.Covalent, Edge{From: c.to, To: i, Dist: c.dist})
		}
	}
	return g
}

// appendNonCov sorts atom i's candidate list by (dist, index), caps it
// at NonCovK and appends the surviving edges.
func (g *Graph) appendNonCov(i int, cs []cand, o GraphOptions) {
	sortCands(cs)
	k := len(cs)
	if o.NonCovK > 0 && k > o.NonCovK {
		k = o.NonCovK
	}
	for _, c := range cs[:k] {
		g.NonCov = append(g.NonCov, Edge{From: c.to, To: i, Dist: c.dist})
	}
}

// keepReadPocketNodes finishes a graph whose non-covalent edges name
// pocket atom j as node NumLigand+j. It keeps only the pocket atoms
// some edge reads, as rows NumLigand, NumLigand+1, … in ascending
// pocket index, writes their feature rows, renumbers the edges'
// sources to match and shrinks Nodes to the kept rows. Edge order and
// every To index are unchanged.
//
// Nothing a model computes from the graph depends on a pocket node no
// edge reads: no edge enters a pocket node, every per-node operation
// of the SG-CNN is row-wise, and the gather pools ligand rows only.
// Dropping those nodes leaves every score and every trained weight
// bit-identical while the heads stop computing their rows.
func (g *Graph) keepReadPocketNodes(atoms []target.PocketAtom) {
	nl := g.NumLigand
	sc := &g.scratch
	if cap(sc.pocketRow) < len(atoms) {
		sc.pocketRow = make([]int, len(atoms))
	}
	row := sc.pocketRow[:len(atoms)]
	for j := range row {
		row[j] = -1
	}
	for _, e := range g.NonCov {
		if e.From >= nl {
			row[e.From-nl] = 0
		}
	}
	n := nl
	for j := range row {
		if row[j] < 0 {
			continue
		}
		row[j] = n
		pocketNodeRow(&atoms[j], g.Nodes.Row(n))
		n++
	}
	for k := range g.NonCov {
		if from := g.NonCov[k].From; from >= nl {
			g.NonCov[k].From = row[from-nl]
		}
	}
	g.Nodes.Data = g.Nodes.Data[:n*NodeFeatures]
	g.Nodes.Shape[0] = n
}

// pocketNodeRow writes one pocket pseudo-atom's full node-feature row.
// Writing every entry (zeros included) is what lets both build paths
// skip zeroing the node tensor.
func pocketNodeRow(pa *target.PocketAtom, row []float64) {
	for i := range row {
		row[i] = 0
	}
	if pa.Hydrophobic {
		row[0] = 1
	}
	row[3] = 1 // generic heavy-atom presence channel for the protein
	if pa.Donor {
		row[5] = 1
	}
	if pa.Acceptor {
		row[6] = 1
	}
	row[7] = pa.Charged
}
