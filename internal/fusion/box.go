package fusion

import (
	"fmt"
	"sync"
	"sync/atomic"

	"deepfusion/internal/featurize"
	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// This file is the geometry of the voxel head's pooled inference: the
// convolution stack runs over the batch's active box — the part of the
// grid the batch's occupied voxels can influence — instead of the whole
// grid, and everything outside the box is the model's empty-grid
// response, which does not depend on the batch.
//
// Why that is exact. A voxel's activation after a conv stage depends
// only on the input voxels within kernel reach. Outside the occupied
// box dilated by the reach so far, every stage sees exactly what it
// sees when the whole input grid is zero; so there the activation
// equals, bit for bit, the activation of the all-zero grid at the same
// position (the same non-zero terms arrive in the same order). That
// empty-grid response is a property of the weights alone: identically
// zero when the conv biases are zero, otherwise computed once per model
// and precision and shared by every replica. Inside the box the stages
// run the same kernels in the same term order as on the whole grid, fed
// — where the empty-grid response is non-zero — a halo of it around
// the box. The whole grid is just the largest box: a fully occupied
// grid (the repro 8^3 grid at 3 A) takes this same path with every box
// equal to the grid, no halo and nothing to fill in.

// boxPlan is the per-batch geometry: the box each stage of the conv
// stack is evaluated over, each in the coordinates of its own
// resolution.
type boxPlan struct {
	in   tensor.Box // the batch's occupied input voxels
	c1   tensor.Box // conv1 output
	c2   tensor.Box // conv2 output, aligned for pool1
	c3   tensor.Box // conv3 output, half resolution
	c4   tensor.Box // conv4 output, half resolution, aligned for pool2
	flat tensor.Box // pool2 output, quarter resolution
}

// planBoxes grows the occupied box by each conv stage's kernel radius,
// aligns it outward where a 2x pool follows, and clips it to the grid.
func (m *CNN3D) planBoxes(occupied tensor.Box) boxPlan {
	g := m.Cfg.Voxel.GridSize
	full, half := tensor.GridBox(g, g, g), tensor.GridBox(g/2, g/2, g/2)
	var p boxPlan
	p.in = occupied.Intersect(full)
	p.c1 = p.in.Dilate(m.conv1.K / 2).Intersect(full)
	p.c2 = p.c1.Dilate(m.conv2.K / 2).Align(2).Intersect(full)
	p.c3 = p.c2.Downscale(2).Dilate(m.conv3.K / 2).Intersect(half)
	p.c4 = p.c3.Dilate(m.conv4.K / 2).Align(2).Intersect(half)
	p.flat = p.c4.Downscale(2)
	return p
}

// occupiedBox returns a box containing every non-zero voxel of the
// sample's grid: from the slot state when the grid was rendered through
// a prefeature (recorded while splatting), by one scan of the grid
// otherwise.
func (s *Sample) occupiedBox() tensor.Box {
	if b, ok := s.voxState.OccupiedBox(); ok {
		return b
	}
	return featurize.OccupiedBox(s.Voxels)
}

// batchBox checks the samples' grids against the model's and returns
// the union of their occupied boxes.
func (m *CNN3D) batchBox(samples []*Sample) tensor.Box {
	c, g := m.Cfg.Voxel.Channels(), m.Cfg.Voxel.GridSize
	var box tensor.Box
	for _, s := range samples {
		v := s.Voxels
		if v.Rank() != 4 || v.Dim(0) != c || v.Dim(1) != g || v.Dim(2) != g || v.Dim(3) != g {
			panic(fmt.Sprintf("fusion: CNN3D expects [%d,%d,%d,%d] voxel grids, got %v", c, g, g, g, v.Shape))
		}
		box = box.Union(s.occupiedBox())
	}
	return box
}

// emptyResponse is the conv stack's activation maps for an all-zero
// input grid, at the four points where the box path needs what lies
// outside its boxes: a1 after the first activation (conv2's halo and
// the first residual), p1 after pool1 (conv3's halo), a3 after the
// third activation (conv4's halo and the second residual), and p2 after
// pool2 (what fc1 reads outside the box). Each is [channels, grid
// volume] at its resolution, or nil when identically zero.
type emptyResponse[T tensor.Float] struct {
	gens           [8]uint64 // conv parameter generations the maps were built from
	a1, p1, a3, p2 []T
}

// emptyCache holds a model's empty-grid responses, one per precision,
// shared by the model and all of its replicas.
type emptyCache struct {
	mu  sync.Mutex // serializes builds: ranks hitting a cold model build once
	e32 atomic.Pointer[emptyResponse[float32]]
	e64 atomic.Pointer[emptyResponse[float64]]
}

// convGens snapshots the generations of the parameters the empty-grid
// response depends on.
func (m *CNN3D) convGens() (g [8]uint64) {
	for i, c := range []*nn.Conv3D{m.conv1, m.conv2, m.conv3, m.conv4} {
		g[2*i], g[2*i+1] = c.W.Gen(), c.B.Gen()
	}
	return g
}

// zeroConvBiases reports whether the empty-grid response is zero by
// construction: zero biases map a zero grid to zero through every conv,
// ReLU, residual add and pool.
func (m *CNN3D) zeroConvBiases() bool {
	for _, c := range []*nn.Conv3D{m.conv1, m.conv2, m.conv3, m.conv4} {
		for _, b := range c.B.Value.Data {
			if b != 0 {
				return false
			}
		}
	}
	return true
}

// emptyPlan is the geometry of the run that computes the empty-grid
// response: every stage over its whole grid, nothing occupied.
func (m *CNN3D) emptyPlan() boxPlan {
	g := m.Cfg.Voxel.GridSize
	p := m.planBoxes(tensor.GridBox(g, g, g))
	p.in = tensor.Box{}
	return p
}

// keepNonZero copies an activation map out of the arena, or returns
// nil when it is identically zero.
func keepNonZero[T tensor.Float](data []T) []T {
	for _, v := range data {
		if v != 0 {
			return append([]T(nil), data...)
		}
	}
	return nil
}

// emptyOf returns the model's empty-grid response at width T, building
// it on first use and again after any conv parameter changes: under
// the cache's lock, unless another rank got there first, run the conv
// stack over the whole grid on an empty input and keep the maps. Zero
// conv biases need no run: the response is zero. The run gets a
// private workspace — whole-grid buffers would otherwise sit in the
// caller's arena for the life of the job.
func emptyOf[T tensor.Float](m *CNN3D) *emptyResponse[T] {
	slot := tensor.Select[*atomic.Pointer[emptyResponse[T]]](&m.empty.e64, &m.empty.e32)
	gens := m.convGens()
	if e := slot.Load(); e != nil && e.gens == gens {
		return e
	}
	m.empty.mu.Lock()
	defer m.empty.mu.Unlock()
	gens = m.convGens()
	if e := slot.Load(); e != nil && e.gens == gens {
		return e
	}
	e := &emptyResponse[T]{gens: gens}
	if !m.zeroConvBiases() {
		ws := nn.NewWorkspace()
		x := nn.Arena[T](ws).GetUninit(1, m.Cfg.Voxel.Channels(), 0, 0, 0)
		st := convStack(m, x, m.emptyPlan(), e, ws)
		e.a1, e.p1 = keepNonZero(st.a1.Data), keepNonZero(st.p1.Data)
		e.a3, e.p2 = keepNonZero(st.a3.Data), keepNonZero(st.p2.Data)
	}
	slot.Store(e)
	return e
}

// Region helpers over flat [channels, box dims] blocks.

// boxRows walks region r — in grid coordinates, inside both boxes —
// row by row over every channel, handing fn the offset of each row in a
// block laid out over dBox, its offset in a block laid out over sBox,
// and the row width.
func boxRows(dBox, sBox, r tensor.Box, channels int, fn func(d, s, w int)) {
	if r.Empty() {
		return
	}
	_, dh, dw := dBox.Dims()
	_, sh, sw := sBox.Dims()
	dVol, sVol := dBox.Volume(), sBox.Volume()
	w := r.Hi[2] - r.Lo[2]
	for c := 0; c < channels; c++ {
		for x := r.Lo[0]; x < r.Hi[0]; x++ {
			for y := r.Lo[1]; y < r.Hi[1]; y++ {
				d := c*dVol + ((x-dBox.Lo[0])*dh+y-dBox.Lo[1])*dw + r.Lo[2] - dBox.Lo[2]
				s := c*sVol + ((x-sBox.Lo[0])*sh+y-sBox.Lo[1])*sw + r.Lo[2] - sBox.Lo[2]
				fn(d, s, w)
			}
		}
	}
}

// copyBox copies region r of every channel of src (laid out over sBox)
// into dst (laid out over dBox).
func copyBox[T any](dst []T, dBox tensor.Box, src []T, sBox tensor.Box, r tensor.Box, channels int) {
	boxRows(dBox, sBox, r, channels, func(d, s, w int) { copy(dst[d:d+w], src[s:s+w]) })
}

// addBox adds src (laid out over sBox) into dst (laid out over dBox)
// wherever the two boxes overlap, channel by channel — the residual
// connection between a stage's output and its (haloed) input.
func addBox[T tensor.Float](dst []T, dBox tensor.Box, src []T, sBox tensor.Box, channels int) {
	boxRows(dBox, sBox, dBox.Intersect(sBox), channels, func(d, s, w int) {
		drow := dst[d : d+w]
		for i, v := range src[s : s+w] {
			drow[i] += v
		}
	})
}

// fillFlat assembles one sample's fc1 input: the empty-grid response
// (or zero) over the whole pooled grid with the box's values laid over
// it.
func fillFlat[T tensor.Float](dst []T, grid tensor.Box, empty []T, src []T, box tensor.Box, channels int) {
	if empty != nil {
		copy(dst, empty)
	} else {
		clear(dst)
	}
	copyBox(dst, grid, src, box, box, channels)
}
