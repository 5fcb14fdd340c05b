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
// convolution stack runs over the part of the grid a batch can change
// instead of the whole grid, and everything outside it is read from a
// response computed once per target.
//
// Why that is exact. A voxel's activation after a conv stage depends
// only on the input voxels within kernel reach, summed in ascending
// (channel, position) order. So where the reach, through every earlier
// stage, holds the same input voxels as some reference grid, the
// activation equals that grid's activation bit for bit: the same terms
// arrive in the same order. Screening scores every pose against one
// pocket, and the pocket prefeature renders each pose's grid as the
// protein-only baseline plus ligand splats in disjoint channels, so
// outside the ligand's box the grid is the baseline byte for byte. The
// reference is therefore the target's baseline response — the conv
// stack's activations on the protein-only grid — and the stack runs
// only over the ligand's cone: its box grown by each stage's reach,
// with conv1 reading the real grid (protein voxels included) over all
// of its reach, and later stages fed a halo of the baseline response
// around their boxes. Inside the cone the stages run the same kernels
// in the same term order as on the whole grid.
//
// The baseline response is built by this same box path on the
// protein-only grid, whose reference in turn is the empty grid: with no
// prefeature the reference is the empty-grid response, a property of
// the weights alone (identically zero when the conv biases are zero).
// A batch whose samples do not all carry slot state from one
// prefeature takes that case, with the union of its occupied boxes as
// the cone. Responses are rebuilt when a conv parameter changes; the
// baseline one lives as long as its prefeature. The whole grid is just
// the largest box: when a batch's cone covers it (the repro 8^3 grid
// at 3 A), no response is read, looked up or built.

// boxPlan is the per-batch geometry: the box each stage of the conv
// stack is evaluated over, each in the coordinates of its own
// resolution.
type boxPlan struct {
	in   tensor.Box // the input voxels conv1 reads
	c1   tensor.Box // conv1 output
	c2   tensor.Box // conv2 output, aligned for pool1
	c3   tensor.Box // conv3 output, half resolution
	c4   tensor.Box // conv4 output, half resolution, aligned for pool2
	flat tensor.Box // pool2 output, quarter resolution
}

// planBoxes plans the stack for a grid that is zero outside the
// occupied box: conv1 reads only the occupied voxels.
func (m *CNN3D) planBoxes(occupied tensor.Box) boxPlan {
	full := m.gridBox()
	in := occupied.Intersect(full)
	return m.planFrom(in, in.Dilate(m.conv1.K/2).Intersect(full))
}

// planCone plans the stack for a grid that equals the reference grid
// outside the ligand's box: conv1's output box is what the ligand
// reaches, and conv1 reads all of that box's reach.
func (m *CNN3D) planCone(ligand tensor.Box) boxPlan {
	full, r := m.gridBox(), m.conv1.K/2
	c1 := ligand.Dilate(r).Intersect(full)
	return m.planFrom(c1.Dilate(r).Intersect(full), c1)
}

// planFrom grows conv1's output box by each later stage's kernel
// radius, aligns it outward where a 2x pool follows, and clips it to
// the grid.
func (m *CNN3D) planFrom(in, c1 tensor.Box) boxPlan {
	g := m.Cfg.Voxel.GridSize
	full, half := tensor.GridBox(g, g, g), tensor.GridBox(g/2, g/2, g/2)
	p := boxPlan{in: in, c1: c1}
	p.c2 = p.c1.Dilate(m.conv2.K / 2).Align(2).Intersect(full)
	p.c3 = p.c2.Downscale(2).Dilate(m.conv3.K / 2).Intersect(half)
	p.c4 = p.c3.Dilate(m.conv4.K / 2).Align(2).Intersect(half)
	p.flat = p.c4.Downscale(2)
	return p
}

func (m *CNN3D) gridBox() tensor.Box {
	g := m.Cfg.Voxel.GridSize
	return tensor.GridBox(g, g, g)
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

// plan checks the batch and chooses its geometry: the ligands' cone
// over the prefeature's baseline when every sample's slot state names
// that one prefeature, the occupied boxes over the empty grid (pf nil)
// otherwise.
func (m *CNN3D) plan(samples []*Sample) (p boxPlan, pf *featurize.PocketPrefeature) {
	occupied := m.batchBox(samples)
	var ligand tensor.Box
	for i, s := range samples {
		owner, box := s.voxState.Ligand()
		if owner == nil || (i > 0 && owner != pf) {
			return m.planBoxes(occupied), nil
		}
		pf, ligand = owner, ligand.Union(box)
	}
	return m.planCone(ligand), pf
}

// response is the conv stack's activation maps for a reference grid —
// a prefeature's baseline, or the empty grid — at the four points where
// the box path needs what lies outside its boxes: a1 after the first
// activation (conv2's halo and the first residual), p1 after pool1
// (conv3's halo), a3 after the third activation (conv4's halo and the
// second residual), and p2 after pool2 (what fc1 reads outside the
// box). Each is [channels, grid volume] at its resolution, or nil when
// identically zero.
type response[T tensor.Float] struct {
	gens           [8]uint64 // conv parameter generations the maps were built from
	a1, p1, a3, p2 []T
}

// responses holds one reference grid's response at each width.
type responses struct {
	r64 atomic.Pointer[response[float64]]
	r32 atomic.Pointer[response[float32]]
}

// responseCache is a model's share of the responses, read by every
// goroutine scoring the model: the lock that serializes builds (ranks
// hitting a cold model build once) and the empty grid's responses. A
// baseline's responses live in its prefeature (Attached), keyed by this
// cache, so they die with the prefeature.
type responseCache struct {
	mu    sync.Mutex
	empty responses
}

// of returns where the responses to pf's baseline (the empty grid's
// when pf is nil) are kept.
func (c *responseCache) of(pf *featurize.PocketPrefeature) *responses {
	if pf == nil {
		return &c.empty
	}
	return pf.Attached(c, newResponses).(*responses)
}

func newResponses() any { return new(responses) }

// slotOf returns the width-T response of rs.
func slotOf[T tensor.Float](rs *responses) *atomic.Pointer[response[T]] {
	return tensor.Select[*atomic.Pointer[response[T]]](&rs.r64, &rs.r32)
}

// responseBuilds counts conv-stack runs that built a response.
var responseBuilds atomic.Int64

// ResponseBuilds returns how many times this process has run the conv
// stack to build a reference-grid response (a prefeature's baseline
// response, or a non-zero empty-grid response): a diagnostic for tests
// that must show a warm model builds nothing per job.
func ResponseBuilds() int64 { return responseBuilds.Load() }

// convGens snapshots the generations of the parameters a response
// depends on.
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

// responseOf returns the model's response at width T to pf's baseline,
// or to the empty grid when pf is nil, building it on first use and
// again after any conv parameter changes.
func responseOf[T tensor.Float](m *CNN3D, pf *featurize.PocketPrefeature) *response[T] {
	if r := slotOf[T](m.resp.of(pf)).Load(); r != nil && r.gens == m.convGens() {
		return r
	}
	m.resp.mu.Lock()
	defer m.resp.mu.Unlock()
	return buildResponse[T](m, pf, m.convGens())
}

// buildResponse is responseOf under the cache's lock, unless another
// rank got there first: run the box path over the reference grid — the
// baseline over its box with the empty-grid response outside, or the
// empty grid over the whole grid — and lay each stage's box over the
// outside response. Zero conv biases need no run for the empty grid:
// its response is zero. The run gets a private workspace, since
// whole-grid buffers would otherwise sit in the caller's arena for the
// life of the job.
func buildResponse[T tensor.Float](m *CNN3D, pf *featurize.PocketPrefeature, gens [8]uint64) *response[T] {
	slot := slotOf[T](m.resp.of(pf))
	if r := slot.Load(); r != nil && r.gens == gens {
		return r
	}
	r := &response[T]{gens: gens}
	defer slot.Store(r)
	g, c := m.Cfg.Voxel.GridSize, m.Cfg.Voxel.Channels()
	full := tensor.GridBox(g, g, g)
	var p boxPlan
	var grid []float64
	outside := &response[T]{}
	if pf == nil {
		if m.zeroConvBiases() {
			return r
		}
		p = m.planBoxes(full) // every stage over the whole grid,
		p.in = tensor.Box{}   // with nothing occupied
	} else {
		outside = buildResponse[T](m, nil, gens)
		p, grid = m.planBoxes(pf.BaselineBox()), pf.Baseline()
	}
	responseBuilds.Add(1)
	ws := nn.NewWorkspace()
	d, h, w := p.in.Dims()
	x := nn.Arena[T](ws).GetUninit(1, c, d, h, w)
	convertBox(x.Data, p.in, grid, full, c)
	st := convStack(m, x, p, outside, ws)
	half, quarter := tensor.GridBox(g/2, g/2, g/2), tensor.GridBox(g/4, g/4, g/4)
	r.a1 = overlay(outside.a1, st.a1.Data, p.c1, full)
	r.p1 = overlay(outside.p1, st.p1.Data, p.c2.Downscale(2), half)
	r.a3 = overlay(outside.a3, st.a3.Data, p.c3, half)
	r.p2 = overlay(outside.p2, st.p2.Data, p.flat, quarter)
	return r
}

// overlay lays an activation map over box onto the outside response
// over the whole grid, returning nil when the result is identically
// zero.
func overlay[T tensor.Float](outside, src []T, box, grid tensor.Box) []T {
	v := box.Volume()
	if v == 0 {
		return outside
	}
	channels := len(src) / v
	dst := make([]T, channels*grid.Volume())
	fillFlat(dst, grid, outside, src, box, channels)
	for _, x := range dst {
		if x != 0 {
			return dst
		}
	}
	return nil
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

// convertBox narrows region box of every channel of a float64 grid
// (laid out over grid) into dst, laid out over box.
func convertBox[T tensor.Float](dst []T, box tensor.Box, src []float64, grid tensor.Box, channels int) {
	boxRows(box, grid, box, channels, func(d, s, w int) { tensor.Convert(dst[d:d+w], src[s:s+w]) })
}

// fillFlat assembles a whole-grid map: the outside response (or zero)
// over the grid with the box's values laid over it.
func fillFlat[T tensor.Float](dst []T, grid tensor.Box, outside []T, src []T, box tensor.Box, channels int) {
	if outside != nil {
		copy(dst, outside)
	} else {
		clear(dst)
	}
	copyBox(dst, grid, src, box, box, channels)
}
