package tensor

import "fmt"

// F32 is the single-precision sibling of Tensor: a dense, row-major
// n-dimensional array of float32. It exists for the inference fast
// path only — training and the verified reference forward pass stay in
// float64 — so it carries just the surface the f32 kernels need
// (construction, views, row access, fill) rather than the full
// element-wise algebra of Tensor.
type F32 struct {
	Shape []int
	Data  []float32
}

// NewF32 returns a zero-filled float32 tensor with the given shape.
// Like New, the variadic shape is defensively copied.
func NewF32(shape ...int) *F32 {
	return NewF32FromShape(append([]int(nil), shape...))
}

// NewF32FromShape takes ownership of shape (no defensive copy),
// mirroring NewFromShape's one-allocation contract.
func NewF32FromShape(shape []int) *F32 {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &F32{Shape: shape, Data: make([]float32, n)}
}

// F32FromSlice wraps data in an F32 with the given shape. The slice is
// aliased, never copied — the same contract as FromSlice.
func F32FromSlice(data []float32, shape ...int) *F32 {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v requires %d elements, got %d", shape, n, len(data)))
	}
	return &F32{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *F32) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *F32) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *F32) Rank() int { return len(t.Shape) }

// Row returns a view of row i of a rank-2 tensor as a slice.
func (t *F32) Row(i int) []float32 {
	if len(t.Shape) != 2 {
		panic("tensor: F32.Row requires a rank-2 tensor")
	}
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Fill sets every element to v.
func (t *F32) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0 via memclr (see Tensor.Zero); at four
// bytes per element the clear moves half the reference path's bytes.
func (t *F32) Zero() { clear(t.Data) }

// CopyFrom64 fills t element-wise from the float64 tensor x, which
// must have the same element count. It is the narrowing conversion at
// the f64→f32 boundary: weights convert once per parameter, features
// convert once per batch, and everything downstream stays float32.
func (t *F32) CopyFrom64(x *Tensor) {
	if len(t.Data) != len(x.Data) {
		panic("tensor: F32.CopyFrom64 length mismatch")
	}
	for i, v := range x.Data {
		t.Data[i] = float32(v)
	}
}
