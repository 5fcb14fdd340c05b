// Package tensor provides a minimal n-dimensional dense tensor
// together with the linear-algebra kernels the neural network layers
// in this repository are built on.
//
// The package is deliberately small: row-major contiguous storage, a
// handful of element-wise operations, matrix multiplication, and a
// parallel-for helper used by the compute-heavy kernels. It plays the
// role PyTorch's ATen plays for the original FAST/Deep Fusion code.
//
// One generic type serves both element widths: Tensor (float64) is
// what training and the verified reference path run on, F32 (float32)
// is the inference fast path. Code above this package is written once
// over Float; the few kernels whose width-specific versions differ
// (leaves.go) are selected by element type.
package tensor

import (
	"fmt"
	"math"
)

// Float is the element type of a tensor.
type Float interface{ float32 | float64 }

// Dense is a dense, row-major n-dimensional array. The zero value is
// an empty tensor with no shape.
type Dense[T Float] struct {
	Shape []int
	Data  []T
}

// Tensor is the float64 tensor: training, the reference inference
// path and every feature the featurizers produce.
type Tensor = Dense[float64]

// F32 is the float32 tensor of the inference fast path.
type F32 = Dense[float32]

// New returns a zero-filled float64 tensor with the given shape. It
// panics if any dimension is negative. The variadic shape is
// defensively copied (callers may pass a retained slice via New(s...));
// code that already owns a fresh shape slice uses the FromShape
// constructors to skip the copy.
func New(shape ...int) *Tensor { return newDense[float64](shape...) }

// NewF32 returns a zero-filled float32 tensor with the given shape.
func NewF32(shape ...int) *F32 { return newDense[float32](shape...) }

func newDense[T Float](shape ...int) *Dense[T] {
	return newFromShape[T](append([]int(nil), shape...))
}

// NewF32FromShape is the single-shot float32 constructor: it takes
// ownership of shape (no defensive copy), so building a tensor costs
// exactly one data allocation plus the header. The caller must not
// retain or mutate shape afterwards.
func NewF32FromShape(shape []int) *F32 { return newFromShape[float32](shape) }

func newFromShape[T Float](shape []int) *Dense[T] {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Dense[T]{Shape: shape, Data: make([]T, n)}
}

// FromSlice wraps data in a tensor with the given shape.
//
// Aliasing contract: the slice is used directly, never copied — the
// tensor and the caller share one buffer, writes through either are
// visible to both, and the caller must keep the slice alive and
// unrestructured for the life of the tensor. This is what lets kernels
// carve sub-tile views out of preallocated scratch without allocating.
// It panics if the length does not match the shape.
func FromSlice[T Float](data []T, shape ...int) *Dense[T] {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v requires %d elements, got %d", shape, n, len(data)))
	}
	return &Dense[T]{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Dense[T]) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Dense[T]) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Dense[T]) Rank() int { return len(t.Shape) }

// SameShape reports whether t and o have identical shapes.
func (t *Dense[T]) SameShape(o *Dense[T]) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if o.Shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Dense[T]) Clone() *Dense[T] {
	c := newDense[T](t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape covering the same data.
// It panics if the element counts differ.
func (t *Dense[T]) Reshape(shape ...int) *Dense[T] {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.Shape, len(t.Data), shape, n))
	}
	return &Dense[T]{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Dense[T]) At(idx ...int) T {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Dense[T]) Set(v T, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Dense[T]) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// Fill sets every element to v.
func (t *Dense[T]) Fill(v T) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0. Unlike Fill(0) — whose store loop the
// compiler cannot specialize because the value is a parameter — clear
// lowers to a vectorized memclr, so zeroing runs at memory bandwidth.
func (t *Dense[T]) Zero() { clear(t.Data) }

// AddInPlace adds o element-wise into t. Shapes must match in length.
func (t *Dense[T]) AddInPlace(o *Dense[T]) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AddInPlace length mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element by s.
func (t *Dense[T]) Scale(s T) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AXPY computes t += a*o element-wise.
func (t *Dense[T]) AXPY(a T, o *Dense[T]) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AXPY length mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += a * v
	}
}

// Add returns t + o as a new tensor.
func Add[T Float](t, o *Dense[T]) *Dense[T] {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Add length mismatch")
	}
	r := newDense[T](t.Shape...)
	for i := range t.Data {
		r.Data[i] = t.Data[i] + o.Data[i]
	}
	return r
}

// Sum returns the sum of all elements.
func (t *Dense[T]) Sum() T {
	var s T
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty).
func (t *Dense[T]) Mean() T {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / T(len(t.Data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Dense[T]) Max() T {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Dense[T]) Min() T {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Dense[T]) Norm2() T {
	var s T
	for _, v := range t.Data {
		s += v * v
	}
	return T(math.Sqrt(float64(s)))
}

// Apply replaces every element x with f(x).
func (t *Dense[T]) Apply(f func(T) T) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// Row returns a view of row i of a rank-2 tensor as a slice.
func (t *Dense[T]) Row(i int) []T {
	if len(t.Shape) != 2 {
		panic("tensor: Row requires a rank-2 tensor")
	}
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// AddToRows adds v to every row of a rank-2 tensor (a bias over a
// batch of rows).
func (t *Dense[T]) AddToRows(v []T) {
	n := t.Shape[1]
	for i := 0; i < t.Shape[0]; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j := range row {
			row[j] += v[j]
		}
	}
}

// CopyFrom64 fills t element-wise from the float64 tensor x, which
// must have the same element count — the narrowing conversion at the
// f64→f32 boundary of the fast path (see Convert).
func (t *Dense[T]) CopyFrom64(x *Tensor) { Convert(t.Data, x.Data) }

// String implements fmt.Stringer with a compact summary.
func (t *Dense[T]) String() string {
	return fmt.Sprintf("Tensor%v n=%d", t.Shape, len(t.Data))
}
