package tensor

// Box is a half-open axis-aligned region [Lo, Hi) of a 3-D voxel grid,
// in voxel coordinates ordered like the trailing tensor dimensions
// (depth, height, width). The voxel head runs its convolution stack
// over the box that contains a batch's occupied voxels instead of the
// whole grid; the full grid is just the largest box.
type Box struct {
	Lo, Hi [3]int
}

// GridBox returns the box covering a whole d x h x w grid.
func GridBox(d, h, w int) Box { return Box{Hi: [3]int{d, h, w}} }

// Dims returns the box's extent along each axis.
func (b Box) Dims() (d, h, w int) {
	return b.Hi[0] - b.Lo[0], b.Hi[1] - b.Lo[1], b.Hi[2] - b.Lo[2]
}

// Volume returns the number of voxels in the box.
func (b Box) Volume() int {
	if b.Empty() {
		return 0
	}
	d, h, w := b.Dims()
	return d * h * w
}

// Empty reports whether the box contains no voxel.
func (b Box) Empty() bool {
	return b.Hi[0] <= b.Lo[0] || b.Hi[1] <= b.Lo[1] || b.Hi[2] <= b.Lo[2]
}

// Union returns the smallest box containing both boxes; an empty box
// contributes nothing. Every operation returns the zero Box for an
// empty result, so empty results compare equal.
func (b Box) Union(o Box) Box {
	if b.Empty() {
		b, o = o, b
	}
	if b.Empty() {
		return Box{}
	}
	if o.Empty() {
		return b
	}
	for a := 0; a < 3; a++ {
		b.Lo[a] = min(b.Lo[a], o.Lo[a])
		b.Hi[a] = max(b.Hi[a], o.Hi[a])
	}
	return b
}

// Intersect returns the region common to both boxes (possibly empty).
func (b Box) Intersect(o Box) Box {
	for a := 0; a < 3; a++ {
		b.Lo[a] = max(b.Lo[a], o.Lo[a])
		b.Hi[a] = min(b.Hi[a], o.Hi[a])
	}
	if b.Empty() {
		return Box{}
	}
	return b
}

// Dilate grows the box by r voxels on every side. An empty box stays
// empty: nothing occupied, nothing within reach.
func (b Box) Dilate(r int) Box {
	if b.Empty() {
		return Box{}
	}
	for a := 0; a < 3; a++ {
		b.Lo[a] -= r
		b.Hi[a] += r
	}
	return b
}

// Align grows the box outward to multiples of k on every axis, so a
// k-wide pooling window never straddles its border.
func (b Box) Align(k int) Box {
	if b.Empty() {
		return Box{}
	}
	for a := 0; a < 3; a++ {
		b.Lo[a] = floorDiv(b.Lo[a], k) * k
		b.Hi[a] = -floorDiv(-b.Hi[a], k) * k
	}
	return b
}

// Downscale maps a k-aligned box to the coordinates of the grid
// pooled by k.
func (b Box) Downscale(k int) Box {
	for a := 0; a < 3; a++ {
		b.Lo[a] /= k
		b.Hi[a] /= k
	}
	return b
}

func floorDiv(a, k int) int {
	q := a / k
	if a%k != 0 && a < 0 {
		q--
	}
	return q
}
