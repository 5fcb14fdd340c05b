package featurize

import (
	"math"
	"sync"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// PocketPrefeature caches everything about featurization that depends
// only on the (target, VoxelOptions, GraphOptions) triple, so the
// per-pose cost of Voxelize and BuildGraph shrinks to the ligand's
// share of the work:
//
//   - the pocket's splatted voxel baseline. Ligand and pocket atoms
//     write disjoint channel halves of the grid, so per-pose
//     voxelization needs only the ligand splats on top of the cached
//     pocket channels — and a recycled slot restores itself by zeroing
//     the handful of voxels the previous pose touched instead of
//     re-zeroing (or re-copying) the whole grid;
//   - a uniform-grid cell list over the pocket atoms at the
//     non-covalent cutoff, so per-pose K-NN visits only the atoms in
//     the 27 cells around each ligand atom instead of every pocket
//     atom.
//
// A prefeature is immutable after construction and safe to share
// across goroutines: the screening engine builds one per job and hands
// it to every loader on every rank, and the campaign orchestrator
// reuses one per target across all of its compound chunks. The one
// mutable part is a side table (Attached) where other packages keep
// what they derive from the prefeature, so it lives exactly as long as
// the prefeature does. Results are
// byte-identical to the uncached Voxelize/BuildGraph path: the pocket
// baseline accumulates splats in the same atom order, and K-NN ranks
// candidates by the same (dist, index) total order the brute-force
// sweep uses.
type PocketPrefeature struct {
	pocket *target.Pocket
	vox    VoxelOptions
	graph  GraphOptions

	baseline []float64 // [C*N^3] pocket-channel splats, ligand channels zero
	// baselineBox bounds the pocket atoms' splat footprints: with the box
	// of a pose's ligand splats it bounds the whole grid's occupancy,
	// which is what the voxel head restricts its convolution stack to.
	baselineBox tensor.Box
	cells       cellList

	attached sync.Map // see Attached
}

// NewPocketPrefeature computes the target-invariant featurization
// cache for one (pocket, options) pair.
func NewPocketPrefeature(p *target.Pocket, vo VoxelOptions, gro GraphOptions) *PocketPrefeature {
	n := vo.GridSize
	pf := &PocketPrefeature{
		pocket:   p,
		vox:      vo,
		graph:    gro,
		baseline: make([]float64, vo.Channels()*n*n*n),
	}
	half := float64(n) * vo.Resolution / 2
	for i := range p.Atoms {
		// Same splat kernel, same chOffset, same atom order as
		// VoxelizeInto — the baseline bytes equal the pocket half of an
		// uncached grid.
		splat(pf.baseline, chem.FeatureChannels, pocketChannels(&p.Atoms[i]), p.Atoms[i].Pos, half, vo, nil, &pf.baselineBox)
	}
	pf.cells = buildCellList(p.Atoms, gro.NonCovThreshold)
	return pf
}

// Pocket returns the target this prefeature was built for.
func (pf *PocketPrefeature) Pocket() *target.Pocket { return pf.pocket }

// Matches reports whether the prefeature was built for exactly this
// (pocket, options) triple — the screening engine refuses a mismatch
// rather than silently featurizing against the wrong cache.
func (pf *PocketPrefeature) Matches(p *target.Pocket, vo VoxelOptions, gro GraphOptions) bool {
	return pf.pocket == p && pf.vox == vo && pf.graph == gro
}

// Baseline returns the protein-only grid every pose is rendered over:
// [C*N^3] pocket-channel splats with the ligand channels zero. It is a
// read-only view of the prefeature's own buffer; callers must not
// write it.
func (pf *PocketPrefeature) Baseline() []float64 { return pf.baseline }

// BaselineBox returns a box containing every non-zero voxel of
// Baseline.
func (pf *PocketPrefeature) BaselineBox() tensor.Box { return pf.baselineBox }

// Attached returns the value attached to the prefeature under key,
// attaching newValue() first when there is none. It is where other
// packages keep state derived from the prefeature — the voxel head's
// response to the baseline grid — so that state is dropped with the
// prefeature instead of outliving it in a global table. Keys are
// compared like map keys; a pointer owned by the caller makes a
// private, allocation-free key. Safe for concurrent use.
func (pf *PocketPrefeature) Attached(key any, newValue func() any) any {
	if v, ok := pf.attached.Load(key); ok {
		return v
	}
	v, _ := pf.attached.LoadOrStore(key, newValue())
	return v
}

// VoxelSlotState tracks what a recycled voxel buffer currently holds:
// which prefeature's pocket baseline its protein channels carry, and
// the ligand-channel voxels the previous pose splatted. The screening
// loaders keep one per pose slot (inside fusion.Sample); with it, a
// warm slot re-voxelizes by zeroing only the touched voxels instead of
// copying the whole baseline. The zero value is valid and means "holds
// nothing".
type VoxelSlotState struct {
	owner   *PocketPrefeature
	touched []int32
	ligand  tensor.Box // bounds the touched voxels
}

// OccupiedBox returns a box containing every non-zero voxel of the
// grid the slot holds — the pocket baseline's box joined with the box
// of the voxels the current pose splatted — without looking at the
// grid. ok is false when the state holds nothing (a grid that was not
// rendered through PocketPrefeature.VoxelizeInto with this state);
// callers then scan the grid with OccupiedBox.
func (st *VoxelSlotState) OccupiedBox() (box tensor.Box, ok bool) {
	if st.owner == nil {
		return tensor.Box{}, false
	}
	return st.owner.baselineBox.Union(st.ligand), true
}

// Ligand returns the prefeature whose baseline the slot's grid carries
// and a box containing every voxel the current pose splatted over it:
// outside that box the grid equals owner.Baseline() exactly. owner is
// nil when the state holds nothing.
func (st *VoxelSlotState) Ligand() (owner *PocketPrefeature, box tensor.Box) {
	if st.owner == nil {
		return nil, tensor.Box{}
	}
	return st.owner, st.ligand
}

// OccupiedBox scans a [C, N, N, N] voxel grid once and returns the
// bounding box of its non-zero voxels over all channels (empty for an
// all-zero grid).
func OccupiedBox(grid *tensor.Tensor) tensor.Box {
	data, channels, n := grid.Data, grid.Dim(0), grid.Dim(1)
	lo := [3]int{n, n, n}
	var hi [3]int
	for c := 0; c < channels; c++ {
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				row := data[((c*n+x)*n+y)*n:][:n]
				first, last := -1, -1
				for z, v := range row {
					if v != 0 {
						if first < 0 {
							first = z
						}
						last = z
					}
				}
				if first < 0 {
					continue
				}
				lo[0], hi[0] = min(lo[0], x), max(hi[0], x+1)
				lo[1], hi[1] = min(lo[1], y), max(hi[1], y+1)
				lo[2], hi[2] = min(lo[2], first), max(hi[2], last+1)
			}
		}
	}
	return tensor.Box{}.Union(tensor.Box{Lo: lo, Hi: hi})
}

// VoxelizeInto renders the posed ligand over the cached pocket
// baseline into dst, reusing its buffer when the element count matches
// and allocating otherwise (including dst == nil). st carries the
// slot's reuse state; a nil st is valid and falls back to copying the
// full baseline every call. The returned tensor is bit-equal to
// Voxelize(p, mol, o) for the prefeature's pocket and options.
//
// The contract for slot reuse: between calls, dst's ligand channels
// must only ever be written through this method (the engine's pose
// slots satisfy this — inference reads the grid, it never writes it).
func (pf *PocketPrefeature) VoxelizeInto(dst *tensor.Tensor, st *VoxelSlotState, mol *chem.Mol) *tensor.Tensor {
	o := pf.vox
	n := o.GridSize
	want := o.Channels() * n * n * n
	out := dst
	if out == nil || out.Len() != want {
		out = tensor.New(o.Channels(), n, n, n)
		if st != nil {
			st.owner = nil // fresh buffer: any recorded state is stale
		}
	} else {
		out.Shape = append(out.Shape[:0], o.Channels(), n, n, n)
	}
	vox := n * n * n
	switch {
	case st == nil:
		copy(out.Data, pf.baseline)
	case st.owner != pf:
		copy(out.Data, pf.baseline)
		st.owner = pf
		st.touched = st.touched[:0]
	default:
		// The grid already holds this target's baseline plus the
		// previous pose's ligand splats; the baseline's ligand channels
		// are identically zero, so restoring it means zeroing exactly
		// the voxels that pose touched.
		for _, off := range st.touched {
			for c := 0; c < chem.FeatureChannels; c++ {
				out.Data[c*vox+int(off)] = 0
			}
		}
		st.touched = st.touched[:0]
	}
	half := float64(n) * o.Resolution / 2
	var rec *[]int32
	var box *tensor.Box
	if st != nil {
		st.ligand = tensor.Box{}
		rec, box = &st.touched, &st.ligand
	}
	for _, a := range mol.Atoms {
		splat(out.Data, 0, ligandChannels(&a), a.Pos, half, o, rec, box)
	}
	return out
}

// BuildGraphInto constructs the pose's spatial graph into g using the
// cell list for the pocket half of the non-covalent K-NN.
// Byte-identical to BuildGraphInto against the prefeature's pocket and
// options; a warm rebuild allocates nothing.
func (pf *PocketPrefeature) BuildGraphInto(g *Graph, mol *chem.Mol) *Graph {
	o := pf.graph
	p := pf.pocket
	g = buildGraphCommon(g, len(p.Atoms), mol, o)
	nl := len(mol.Atoms)

	sc := &g.scratch
	for i := 0; i < nl; i++ {
		sc.stamp++
		for _, nb := range sc.nbrs[i] {
			sc.mark[nb] = sc.stamp
		}
		cs := sc.cands[:0]
		pi := mol.Atoms[i].Pos
		// Ligand-ligand candidates: the ligand is small, brute force.
		for j := 0; j < nl; j++ {
			if j == i || sc.mark[j] == sc.stamp {
				continue
			}
			d := pi.Dist(mol.Atoms[j].Pos)
			if d <= o.NonCovThreshold {
				cs = append(cs, cand{j, d})
			}
		}
		// Ligand-pocket candidates: only the 27 cells around the atom
		// can hold a pocket atom within the cutoff.
		if pf.cells.ok {
			cs = pf.cells.gather(cs, pi, nl, o.NonCovThreshold)
		} else {
			for j := range p.Atoms {
				d := pi.Dist(p.Atoms[j].Pos)
				if d <= o.NonCovThreshold {
					cs = append(cs, cand{nl + j, d})
				}
			}
		}
		sc.cands = cs
		g.appendNonCov(i, cs, o)
	}
	g.keepReadPocketNodes(p.Atoms)
	return g
}

// cellList is a uniform-grid spatial hash over the pocket atoms with
// cell edge equal to the non-covalent cutoff, stored CSR-style so
// queries are allocation-free: atoms within the cutoff of any query
// point lie in the 3x3x3 cell neighborhood of that point.
type cellList struct {
	ok               bool // false: no cutoff or no atoms; fall back to brute force
	minX, minY, minZ float64
	inv              float64 // 1 / cell edge
	nx, ny, nz       int
	start            []int32     // [ncells+1] CSR offsets into atoms
	atoms            []int32     // pocket atom indices grouped by cell
	pos              []chem.Vec3 // positions aligned with atoms
}

func buildCellList(atoms []target.PocketAtom, cutoff float64) cellList {
	if cutoff <= 0 || len(atoms) == 0 {
		return cellList{}
	}
	cl := cellList{ok: true, inv: 1 / cutoff}
	cl.minX, cl.minY, cl.minZ = math.Inf(1), math.Inf(1), math.Inf(1)
	maxX, maxY, maxZ := math.Inf(-1), math.Inf(-1), math.Inf(-1)
	for i := range atoms {
		p := atoms[i].Pos
		cl.minX, maxX = math.Min(cl.minX, p.X), math.Max(maxX, p.X)
		cl.minY, maxY = math.Min(cl.minY, p.Y), math.Max(maxY, p.Y)
		cl.minZ, maxZ = math.Min(cl.minZ, p.Z), math.Max(maxZ, p.Z)
	}
	dim := func(lo, hi float64) int { return int(math.Floor((hi-lo)*cl.inv)) + 1 }
	cl.nx, cl.ny, cl.nz = dim(cl.minX, maxX), dim(cl.minY, maxY), dim(cl.minZ, maxZ)
	ncells := cl.nx * cl.ny * cl.nz
	cl.start = make([]int32, ncells+1)
	cell := make([]int32, len(atoms))
	for i := range atoms {
		c := cl.cellOf(atoms[i].Pos)
		cell[i] = int32(c)
		cl.start[c+1]++
	}
	for c := 0; c < ncells; c++ {
		cl.start[c+1] += cl.start[c]
	}
	cl.atoms = make([]int32, len(atoms))
	cl.pos = make([]chem.Vec3, len(atoms))
	next := make([]int32, ncells)
	copy(next, cl.start[:ncells])
	// Filling in ascending atom order keeps each cell's atoms sorted by
	// index — not needed for correctness (the candidate sort's total
	// order takes care of ties) but it keeps traversal deterministic.
	for i := range atoms {
		k := next[cell[i]]
		next[cell[i]]++
		cl.atoms[k] = int32(i)
		cl.pos[k] = atoms[i].Pos
	}
	return cl
}

// cellOf maps an in-bounds pocket atom position to its cell index.
func (cl *cellList) cellOf(p chem.Vec3) int {
	cx := int(math.Floor((p.X - cl.minX) * cl.inv))
	cy := int(math.Floor((p.Y - cl.minY) * cl.inv))
	cz := int(math.Floor((p.Z - cl.minZ) * cl.inv))
	return (cx*cl.ny+cy)*cl.nz + cz
}

// gather appends every pocket atom within cutoff of q as a candidate
// (node index offset by idxOffset), visiting only the 27 cells around
// q. Query points anywhere in space are fine: a point more than one
// cell outside the grid clips to an empty range, which is correct —
// nothing can be within the cutoff of it.
func (cl *cellList) gather(cs []cand, q chem.Vec3, idxOffset int, cutoff float64) []cand {
	cx := int(math.Floor((q.X - cl.minX) * cl.inv))
	cy := int(math.Floor((q.Y - cl.minY) * cl.inv))
	cz := int(math.Floor((q.Z - cl.minZ) * cl.inv))
	x0, x1 := max(0, cx-1), min(cl.nx-1, cx+1)
	y0, y1 := max(0, cy-1), min(cl.ny-1, cy+1)
	z0, z1 := max(0, cz-1), min(cl.nz-1, cz+1)
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			for z := z0; z <= z1; z++ {
				c := (x*cl.ny+y)*cl.nz + z
				for k := cl.start[c]; k < cl.start[c+1]; k++ {
					d := q.Dist(cl.pos[k])
					if d <= cutoff {
						cs = append(cs, cand{idxOffset + int(cl.atoms[k]), d})
					}
				}
			}
		}
	}
	return cs
}
