package fusion

import (
	"math/rand"

	"deepfusion/internal/chem"
	"deepfusion/internal/featurize"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// Sample is one featurized complex: both model input representations
// plus the training label. Featurization is done once up front (the
// paper's parallel data loaders fill the same role).
type Sample struct {
	ID     string
	Pocket *target.Pocket
	Mol    *chem.Mol
	Voxels *tensor.Tensor // [C, G, G, G]
	Graph  *featurize.Graph
	Label  float64

	// voxState tracks which pocket prefeature's baseline the recycled
	// voxel grid currently holds, so a warm pose slot re-voxelizes by
	// restoring only the voxels the previous pose touched (see
	// FeaturizeComplexWithPrefeature).
	voxState featurize.VoxelSlotState
}

// FeaturizeComplex builds a Sample from a posed complex.
func FeaturizeComplex(id string, p *target.Pocket, mol *chem.Mol, label float64, vo featurize.VoxelOptions, gro featurize.GraphOptions) *Sample {
	return &Sample{
		ID:     id,
		Pocket: p,
		Mol:    mol,
		Voxels: featurize.Voxelize(p, mol, vo),
		Graph:  featurize.BuildGraph(p, mol, gro),
		Label:  label,
	}
}

// stackVoxels concatenates per-sample [C,G,G,G] grids into a batch
// tensor [B,C,G,G,G]. When rng is non-nil, each grid is independently
// rotation-augmented per the paper (10% chance per axis).
func stackVoxels(samples []*Sample, rng *rand.Rand) *tensor.Tensor {
	if len(samples) == 0 {
		return tensor.New(0)
	}
	shape := samples[0].Voxels.Shape
	b := tensor.New(append([]int{len(samples)}, shape...)...)
	per := samples[0].Voxels.Len()
	for i, s := range samples {
		v := s.Voxels
		if rng != nil {
			v = augmentVoxels(v, rng)
		}
		copy(b.Data[i*per:(i+1)*per], v.Data)
	}
	return b
}

// augmentVoxels applies the 90-degree rotation augmentation directly in
// voxel space: each axis rotation permutes grid coordinates exactly, so
// no re-voxelization is needed. Returns the input unchanged (not
// copied) when no rotation fires.
func augmentVoxels(v *tensor.Tensor, rng *rand.Rand) *tensor.Tensor {
	out := v
	for axis := 0; axis < 3; axis++ {
		if rng.Float64() < 0.10 {
			out = rotateVoxels(out, axis)
		}
	}
	return out
}

// rotateVoxels rotates a [C, G, G, G] grid by 90 degrees about the
// given axis (0=X, 1=Y, 2=Z).
func rotateVoxels(v *tensor.Tensor, axis int) *tensor.Tensor {
	c, g := v.Dim(0), v.Dim(1)
	out := tensor.New(v.Shape...)
	for ch := 0; ch < c; ch++ {
		for x := 0; x < g; x++ {
			for y := 0; y < g; y++ {
				for z := 0; z < g; z++ {
					var nx, ny, nz int
					switch axis {
					case 0: // (y,z) -> (-z, y)
						nx, ny, nz = x, g-1-z, y
					case 1: // (z,x) -> (-x, z) => new x = z, new z = g-1-x
						nx, ny, nz = z, y, g-1-x
					default: // (x,y) -> (-y, x)
						nx, ny, nz = g-1-y, x, z
					}
					out.Set(v.At(ch, x, y, z), ch, nx, ny, nz)
				}
			}
		}
	}
	return out
}

// Labels extracts the label vector of a sample list.
func Labels(samples []*Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.Label
	}
	return out
}
