package tensor

import "math/bits"

// This file holds the steady-state memory machinery of the inference
// engine: a size-classed tensor pool (Arena) that makes warm scoring
// loops allocation-free, and pooled view headers so reshapes of pooled
// data do not touch the heap either. The screening engine gives every
// simulated MPI rank one arena; after the first batch warms the free
// lists, each subsequent batch recycles the previous batch's buffers
// instead of allocating (and GC-scanning) fresh ones.

// Arena is a pool of tensors of one element type recycled between
// inference batches.
//
// Get/GetUninit hand out tensors whose backing buffers come from
// per-size-class free lists (capacity rounded up to the next power of
// two, so variable batch geometry — e.g. disjoint-union graph node
// counts — still reuses buffers). Reset recycles every tensor handed
// out since the previous Reset in O(handed out); after the free lists
// are warm, a Get/Reset cycle performs zero heap allocations.
//
// Tensors obtained from an arena are valid only until the next Reset;
// callers must copy anything that outlives the cycle. An Arena is not
// safe for concurrent use — the screening engine owns one per rank and
// width. The zero value is an empty arena.
type Arena[T Float] struct {
	free  [65][]*Dense[T] // by ceil-log2 of element count
	used  []*Dense[T]
	vfree []*Dense[T] // pooled view headers (no owned data)
	vused []*Dense[T]
}

// sizeClass returns the free-list index for n elements: the smallest c
// with 1<<c >= n. Buffers are allocated at full class capacity so any
// request of the same class reuses them.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// GetUninit returns a tensor of the given shape whose contents are
// arbitrary (possibly stale data from a previous cycle). Use it for
// outputs every element of which is overwritten; use Get when the
// kernel accumulates into the buffer.
func (a *Arena[T]) GetUninit(shape ...int) *Dense[T] {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: Arena.Get negative dimension")
		}
		n *= d
	}
	cls := sizeClass(n)
	var t *Dense[T]
	if l := a.free[cls]; len(l) > 0 {
		t = l[len(l)-1]
		a.free[cls] = l[:len(l)-1]
		t.Data = t.Data[:n]
		t.Shape = append(t.Shape[:0], shape...)
	} else {
		// Fresh buffers are allocated at full class capacity so any
		// later request of the class reuses them.
		data := make([]T, 1<<cls)
		t = &Dense[T]{Shape: append([]int(nil), shape...), Data: data[:n]}
	}
	a.used = append(a.used, t)
	return t
}

// Get returns a zero-filled tensor of the given shape, recycled from
// the pool when possible.
func (a *Arena[T]) Get(shape ...int) *Dense[T] {
	t := a.GetUninit(shape...)
	t.Zero()
	return t
}

// View returns a pooled tensor header over data with the given shape
// (no copy, no owned buffer). Like Get results, the header is valid
// until Reset. It is the arena counterpart of Reshape for pooled data.
func (a *Arena[T]) View(data []T, shape ...int) *Dense[T] {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic("tensor: Arena.View shape/data length mismatch")
	}
	var t *Dense[T]
	if l := a.vfree; len(l) > 0 {
		t = l[len(l)-1]
		a.vfree = l[:len(l)-1]
		t.Shape = append(t.Shape[:0], shape...)
	} else {
		t = &Dense[T]{Shape: append([]int(nil), shape...)}
	}
	t.Data = data
	a.vused = append(a.vused, t)
	return t
}

// Put returns t — which must have come from Get/GetUninit on this
// arena — to its free list before the end of the cycle, so tight loops
// over many same-shaped tiles run at O(1) live scratch. Using t after
// Put is a logic error.
func (a *Arena[T]) Put(t *Dense[T]) {
	for i := len(a.used) - 1; i >= 0; i-- {
		if a.used[i] == t {
			a.used[i] = a.used[len(a.used)-1]
			a.used = a.used[:len(a.used)-1]
			a.free[sizeClass(cap(t.Data))] = append(a.free[sizeClass(cap(t.Data))], t)
			return
		}
	}
	panic("tensor: Arena.Put of a tensor not handed out this cycle")
}

// Reset recycles every tensor and view handed out since the previous
// Reset. Buffers stay owned by the arena; only the bookkeeping rewinds.
func (a *Arena[T]) Reset() {
	for _, t := range a.used {
		a.free[sizeClass(cap(t.Data))] = append(a.free[sizeClass(cap(t.Data))], t)
	}
	a.used = a.used[:0]
	for _, t := range a.vused {
		t.Data = nil
		a.vfree = append(a.vfree, t)
	}
	a.vused = a.vused[:0]
}
