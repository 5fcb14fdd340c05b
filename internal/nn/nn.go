// Package nn implements the neural-network layer framework used by the
// Deep Fusion models: parameterized layers with explicit reverse-mode
// backpropagation, the activations and optimizers listed in Table 1 of
// the paper, and mean-squared-error training utilities.
//
// Layers follow a Forward/Backward contract: Forward is the training
// forward — dropout applies its mask, batch norm normalizes by the
// batch's statistics — and caches whatever intermediate state Backward
// needs; Backward must be called at most once per Forward with the
// gradient of the loss with respect to the layer output, returning the
// gradient with respect to the layer input. This mirrors the
// single-pass training loop of the original PyTorch implementation
// without a general autodiff tape.
//
// Evaluation never calls Forward: Infer (infer.go) runs a layer on
// workspace-pooled buffers and stashes nothing, so any number of
// goroutines may evaluate one model at once. Each layer has one forward
// body shared by both: Forward runs the same kernels or per-element
// expressions as Infer at float64 and adds only what training needs.
package nn

import (
	"math"
	"math/rand"
	"sync/atomic"

	"deepfusion/internal/tensor"
)

// Param is a trainable tensor together with its accumulated gradient.
// It also owns the inference forms derived from its values (frozen.go),
// so every rank, workspace and job that scores with the parameter
// shares one copy of them. Always handle a Param by pointer.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	forms atomic.Pointer[frozenForms]
	gen   atomic.Uint64
}

// NewParam allocates a parameter and its gradient buffer with the given
// shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage of a model.
type Layer interface {
	// Forward computes the layer's training output for x: dropout
	// applies its mask and batch norm normalizes by the batch's
	// statistics, updating its running ones. Evaluation runs Infer
	// instead.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes the gradient with respect to the output of the
	// most recent Forward call, accumulates parameter gradients, and
	// returns the gradient with respect to that Forward's input.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters of the layer (possibly
	// empty). The slice must be stable across calls.
	Params() []*Param
}

// Sequential chains layers, feeding each layer's output to the next.
type Sequential struct {
	Layers []Layer
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// GlorotInit fills w (shaped fanOut x fanIn or a conv kernel) with
// Glorot/Xavier-scaled normal values, the initialization used by the
// reference FAST models.
func GlorotInit(rng *rand.Rand, p *Param, fanIn, fanOut int) {
	std := 1.0
	if fanIn+fanOut > 0 {
		std = math.Sqrt(2.0 / float64(fanIn+fanOut))
	}
	p.Update(func(w []float64) {
		for i := range w {
			w[i] = rng.NormFloat64() * std
		}
	})
	glorotInits.Add(1)
}
