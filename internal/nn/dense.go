package nn

import (
	"math/rand"

	"deepfusion/internal/tensor"
)

// Dense is a fully connected layer computing y = x*W^T + b for input
// x of shape [N, In] producing [N, Out].
type Dense struct {
	In, Out int
	W       *Param // [Out, In]
	B       *Param // [Out]

	lastX *tensor.Tensor
}

// NewDense constructs a Glorot-initialized fully connected layer.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   NewParam("dense.w", out, in),
		B:   NewParam("dense.b", out),
	}
	GlorotInit(rng, d.W, in, out)
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		panicShape("Dense", x, d.In)
	}
	d.lastX = x
	y := tensor.MatMulTransB(x, d.W.Value) // [N, Out]
	y.AddToRows(d.B.Value.Data)
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	// dW = grad^T * x ; db = sum over batch ; dx = grad * W
	dw := tensor.MatMulTransA(grad, d.lastX) // [Out, In]
	d.W.Grad.AddInPlace(dw)
	n := grad.Dim(0)
	for i := 0; i < n; i++ {
		row := grad.Row(i)
		for j, g := range row {
			d.B.Grad.Data[j] += g
		}
	}
	return tensor.MatMul(grad, d.W.Value) // [N, In]
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

func panicShape(layer string, x *tensor.Tensor, want int) {
	panic(layer + ": input shape " + x.String() + " incompatible with layer width")
}
