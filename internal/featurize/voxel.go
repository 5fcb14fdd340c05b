// Package featurize converts posed protein-ligand complexes into the
// two model input representations of the Deep Fusion architecture: a
// voxelized Euclidean grid for the 3D-CNN and a spatial graph with
// covalent and non-covalent edge types for the SG-CNN.
package featurize

import (
	"math"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// VoxelOptions configures the grid representation. The paper used a
// 48^3 grid with 19 channels; the repro default is a coarser 8^3 grid
// with 16 channels (8 ligand + 8 protein) so the full pipeline trains
// in seconds rather than GPU-hours. The code path is identical.
type VoxelOptions struct {
	GridSize   int     // voxels per axis
	Resolution float64 // Angstroms per voxel
	Sigma      float64 // Gaussian atom splat width, in voxels
}

// DefaultVoxelOptions returns the repro-scale grid configuration.
func DefaultVoxelOptions() VoxelOptions {
	return VoxelOptions{GridSize: 8, Resolution: 3.0, Sigma: 0.8}
}

// PaperVoxelOptions returns the grid at the scale of the original FAST
// models (48 voxels per axis at 1 A resolution; the paper's 19 atom
// channels map onto this package's 16 ligand+protein channels). Every
// code path is identical to the repro default — only memory and time
// grow by ~200x per pose.
func PaperVoxelOptions() VoxelOptions {
	return VoxelOptions{GridSize: 48, Resolution: 1.0, Sigma: 1.0}
}

// Channels returns the number of voxel channels (ligand + protein).
func (o VoxelOptions) Channels() int { return 2 * chem.FeatureChannels }

// Voxelize renders the complex (ligand posed in the pocket frame) into
// a [C, N, N, N] tensor. Ligand atoms populate channels
// [0, FeatureChannels) and pocket pseudo-atoms populate
// [FeatureChannels, 2*FeatureChannels). Each atom is splatted with a
// truncated Gaussian over its 27-voxel neighborhood.
//
// The donor/acceptor channels (5, 6) are intentionally left empty in
// the grid: at the repro grid resolution (3 A/voxel) hydrogen-bond
// geometry is sub-voxel, so the Euclidean representation cannot carry
// it faithfully — that chemistry reaches the models through the
// SG-CNN's typed graph instead. This is what gives the two heads the
// complementary strengths fusion exploits (shape/occupancy vs bonded
// chemistry), mirroring the premise of the paper's Section 1.
func Voxelize(p *target.Pocket, mol *chem.Mol, o VoxelOptions) *tensor.Tensor {
	return VoxelizeInto(nil, p, mol, o)
}

// VoxelizeInto renders the complex into dst, reusing its buffer when
// it already has the right element count ([C, N, N, N] for the given
// options) and allocating a fresh grid otherwise (including dst ==
// nil). It returns the tensor written, which is dst whenever dst was
// reusable. The grid is zeroed before splatting, so results are
// identical to Voxelize — this is the caller-buffer entry point the
// screening loaders recycle pose slots through.
func VoxelizeInto(dst *tensor.Tensor, p *target.Pocket, mol *chem.Mol, o VoxelOptions) *tensor.Tensor {
	n := o.GridSize
	out := dst
	if out == nil || out.Len() != o.Channels()*n*n*n {
		out = tensor.New(o.Channels(), n, n, n)
	} else {
		out.Shape = append(out.Shape[:0], o.Channels(), n, n, n)
		out.Zero()
	}
	half := float64(n) * o.Resolution / 2
	for _, a := range mol.Atoms {
		splat(out.Data, 0, ligandChannels(&a), a.Pos, half, o, nil, nil)
	}
	for i := range p.Atoms {
		splat(out.Data, chem.FeatureChannels, pocketChannels(&p.Atoms[i]), p.Atoms[i].Pos, half, o, nil, nil)
	}
	return out
}

// ligandChannels returns the voxel channel weights of one ligand atom
// with the grid-suppressed H-bond channels (5, 6) cleared (see the
// Voxelize doc comment).
func ligandChannels(a *chem.Atom) [chem.FeatureChannels]float64 {
	ch := chem.AtomChannels(a.Symbol, a.Charge, a.Aromatic)
	ch[5], ch[6] = 0, 0 // H-bond chemistry: graph-only (see above)
	return ch
}

// pocketChannels returns the voxel channel weights of one pocket
// pseudo-atom — shared by the per-pose splat and the prefeature's
// once-per-target pocket baseline, so the two paths stay bit-equal.
func pocketChannels(pa *target.PocketAtom) [chem.FeatureChannels]float64 {
	var ch [chem.FeatureChannels]float64
	if pa.Hydrophobic {
		ch[0] = 1
	}
	ch[7] = pa.Charged
	ch[3] = 1 // generic heavy-atom presence channel for the protein
	return ch
}

// splat renders one atom's truncated Gaussian into the flat [C,N,N,N]
// grid data starting at channel chOffset, over the in-bounds part of
// the atom's 27-voxel neighborhood. When touched is non-nil, every
// voxel offset (linear within one N^3 channel) of that neighborhood is
// appended to it, and when box is non-nil the neighborhood is joined
// into it — recording happens in the same traversal as the writes, so
// the footprint can never drift out of sync with the splat kernel. The
// prefeature path zeroes exactly the touched offsets across the ligand
// channels to restore a recycled grid to the pocket baseline, and the
// voxel head restricts its convolution stack to the recorded boxes.
func splat(data []float64, chOffset int, ch [chem.FeatureChannels]float64, pos chem.Vec3, half float64, o VoxelOptions, touched *[]int32, box *tensor.Box) {
	n := o.GridSize
	// Continuous voxel coordinates of the atom.
	vx := (pos.X + half) / o.Resolution
	vy := (pos.Y + half) / o.Resolution
	vz := (pos.Z + half) / o.Resolution
	cx, cy, cz := int(math.Floor(vx)), int(math.Floor(vy)), int(math.Floor(vz))
	x0, x1 := max(cx-1, 0), min(cx+1, n-1)
	y0, y1 := max(cy-1, 0), min(cy+1, n-1)
	z0, z1 := max(cz-1, 0), min(cz+1, n-1)
	if x0 > x1 || y0 > y1 || z0 > z1 {
		return
	}
	if box != nil {
		*box = box.Union(tensor.Box{Lo: [3]int{x0, y0, z0}, Hi: [3]int{x1 + 1, y1 + 1, z1 + 1}})
	}
	inv2s2 := 1 / (2 * o.Sigma * o.Sigma)
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			for z := z0; z <= z1; z++ {
				if touched != nil {
					*touched = append(*touched, int32((x*n+y)*n+z))
				}
				ddx := vx - (float64(x) + 0.5)
				ddy := vy - (float64(y) + 0.5)
				ddz := vz - (float64(z) + 0.5)
				w := math.Exp(-(ddx*ddx + ddy*ddy + ddz*ddz) * inv2s2)
				for c, v := range ch {
					if v == 0 {
						continue
					}
					i := (((chOffset+c)*n+x)*n+y)*n + z
					data[i] += v * w
				}
			}
		}
	}
}
