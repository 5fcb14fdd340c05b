package nn

import (
	"math/rand"

	"deepfusion/internal/tensor"
)

// Dropout implements inverted dropout: Forward zeroes each element with
// probability Rate and scales survivors by 1/(1-Rate), so evaluation
// (Infer) is the identity with no rescaling. A Rate of 0 is a no-op.
type Dropout struct {
	Rate float64
	rng  *rand.Rand

	mask []float64
}

// NewDropout constructs a dropout layer with its own deterministic
// random stream. Rates outside [0, 1) panic.
func NewDropout(rng *rand.Rand, rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic("nn: dropout rate must be in [0, 1)")
	}
	return &Dropout{Rate: rate, rng: rand.New(rand.NewSource(rng.Int63()))}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor) *tensor.Tensor {
	if d.Rate == 0 {
		d.mask = nil
		return x
	}
	keep := 1 - d.Rate
	scale := 1 / keep
	d.mask = make([]float64, x.Len())
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask[i] = scale
			out.Data[i] = v * scale
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	out := tensor.New(grad.Shape...)
	for i, g := range grad.Data {
		out.Data[i] = g * d.mask[i]
	}
	return out
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }
