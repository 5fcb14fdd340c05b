package nn

import (
	"math"

	"deepfusion/internal/tensor"
)

// Activation names accepted by NewActivation; these are the options in
// Table 1 of the paper.
const (
	ActReLU  = "relu"
	ActLReLU = "lrelu"
	ActSELU  = "selu"
)

// SELU constants from Klambauer et al. 2017.
const (
	seluAlpha  = 1.6732632423543772
	seluLambda = 1.0507009873554805
)

// Activation is an element-wise nonlinearity layer.
type Activation struct {
	Kind  string
	Slope float64 // negative-region slope for lrelu

	lastX *tensor.Tensor
}

// NewActivation constructs the named activation. For ActLReLU the
// conventional slope of 0.01 is used. Unknown names panic.
func NewActivation(kind string) *Activation {
	switch kind {
	case ActReLU, ActSELU:
		return &Activation{Kind: kind}
	case ActLReLU:
		return &Activation{Kind: kind, Slope: 0.01}
	default:
		panic("nn: unknown activation " + kind)
	}
}

// Forward implements Layer.
func (a *Activation) Forward(x *tensor.Tensor) *tensor.Tensor {
	a.lastX = x
	out := tensor.New(x.Shape...)
	activate(a, out.Data, x.Data)
	return out
}

// Backward implements Layer.
func (a *Activation) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(grad.Shape...)
	x := a.lastX
	switch a.Kind {
	case ActReLU:
		for i, v := range x.Data {
			if v > 0 {
				out.Data[i] = grad.Data[i]
			}
		}
	case ActLReLU:
		for i, v := range x.Data {
			if v > 0 {
				out.Data[i] = grad.Data[i]
			} else {
				out.Data[i] = a.Slope * grad.Data[i]
			}
		}
	case ActSELU:
		for i, v := range x.Data {
			if v > 0 {
				out.Data[i] = seluLambda * grad.Data[i]
			} else {
				out.Data[i] = seluLambda * seluAlpha * math.Exp(v) * grad.Data[i]
			}
		}
	}
	return out
}

// Params implements Layer.
func (a *Activation) Params() []*Param { return nil }
