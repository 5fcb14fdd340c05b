package nn

import (
	"math"

	"deepfusion/internal/tensor"
)

// BatchNorm normalizes a [N, F] activation per feature, with learned
// scale (gamma) and shift (beta), keeping running statistics for
// evaluation (Infer) and for a training batch of one, which has no
// variance of its own. This is the "Batch norm." T/F option of Table 1.
type BatchNorm struct {
	F        int
	Gamma    *Param
	Beta     *Param
	RunMean  []float64
	RunVar   []float64
	Momentum float64
	Eps      float64

	// cached forward state
	lastXHat *tensor.Tensor
	lastStd  []float64
}

// NewBatchNorm constructs a batch-norm layer over f features.
func NewBatchNorm(f int) *BatchNorm {
	b := &BatchNorm{
		F:        f,
		Gamma:    NewParam("bn.gamma", f),
		Beta:     NewParam("bn.beta", f),
		RunMean:  make([]float64, f),
		RunVar:   make([]float64, f),
		Momentum: 0.9,
		Eps:      1e-5,
	}
	b.Gamma.Update(func(w []float64) {
		for i := range w {
			w[i] = 1
		}
	})
	for i := range b.RunVar {
		b.RunVar[i] = 1
	}
	return b
}

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != b.F {
		panic("nn: BatchNorm expects [N, F] input matching layer width")
	}
	n := x.Dim(0)
	out := tensor.New(x.Shape...)
	if n < 2 {
		// A batch of one: normalize with the running statistics.
		b.lastXHat = nil
		for i := 0; i < n; i++ {
			for j := 0; j < b.F; j++ {
				xh := (x.At(i, j) - b.RunMean[j]) / math.Sqrt(b.RunVar[j]+b.Eps)
				out.Set(b.Gamma.Value.Data[j]*xh+b.Beta.Value.Data[j], i, j)
			}
		}
		return out
	}
	mean := make([]float64, b.F)
	vari := make([]float64, b.F)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			d := v - mean[j]
			vari[j] += d * d
		}
	}
	for j := range vari {
		vari[j] /= float64(n)
	}
	b.lastXHat = tensor.New(x.Shape...)
	b.lastStd = make([]float64, b.F)
	for j := 0; j < b.F; j++ {
		b.lastStd[j] = math.Sqrt(vari[j] + b.Eps)
		b.RunMean[j] = b.Momentum*b.RunMean[j] + (1-b.Momentum)*mean[j]
		b.RunVar[j] = b.Momentum*b.RunVar[j] + (1-b.Momentum)*vari[j]
	}
	b.Gamma.invalidate() // the folded inference form bakes in the running statistics
	for i := 0; i < n; i++ {
		for j := 0; j < b.F; j++ {
			xh := (x.At(i, j) - mean[j]) / b.lastStd[j]
			b.lastXHat.Set(xh, i, j)
			out.Set(b.Gamma.Value.Data[j]*xh+b.Beta.Value.Data[j], i, j)
		}
	}
	return out
}

// Backward implements Layer.
func (b *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.lastXHat == nil {
		// Running-statistics backward: the statistics are constants.
		out := tensor.New(grad.Shape...)
		n := grad.Dim(0)
		for i := 0; i < n; i++ {
			for j := 0; j < b.F; j++ {
				out.Set(grad.At(i, j)*b.Gamma.Value.Data[j]/math.Sqrt(b.RunVar[j]+b.Eps), i, j)
			}
		}
		return out
	}
	n := grad.Dim(0)
	nf := float64(n)
	out := tensor.New(grad.Shape...)
	for j := 0; j < b.F; j++ {
		sumG, sumGX := 0.0, 0.0
		for i := 0; i < n; i++ {
			g := grad.At(i, j)
			xh := b.lastXHat.At(i, j)
			sumG += g
			sumGX += g * xh
			b.Beta.Grad.Data[j] += g
			b.Gamma.Grad.Data[j] += g * xh
		}
		gamma := b.Gamma.Value.Data[j]
		for i := 0; i < n; i++ {
			g := grad.At(i, j)
			xh := b.lastXHat.At(i, j)
			dx := gamma / b.lastStd[j] * (g - sumG/nf - xh*sumGX/nf)
			out.Set(dx, i, j)
		}
	}
	return out
}

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }
