package nn

import (
	"math"
	"sync"
	"sync/atomic"

	"deepfusion/internal/tensor"
)

// This file is the compile-once half of the inference engine: every
// form of a weight tensor the inference kernels read instead of the
// raw float64 values — packed GEMM panels, the scatter convolution's
// kernel layout, flat vectors, each at both element widths, and the
// folded float32 BatchNorm — is built on first use, stored on the
// parameter itself and shared read-only by every goroutine, rank,
// workspace, job and session that scores with the parameter.
// Parameter values change through one door, Param.Update, which drops
// the forms and advances the generation once the write is done; the
// next inference call rebuilds. Optimizer steps, CopyParams,
// LoadParams and initialization all write through it. The training
// forward and backward read Value directly and never a form, so a
// gradient check may still nudge Value.Data in place between forward
// calls; anything that writes values and then scores must use Update.
// Writing weights concurrently with inference on them is a data race,
// exactly as it is for the values themselves.

// frozenForms holds the derived forms of one parameter generation.
// Reads are lock-free atomic loads; mu serializes builds so concurrent
// ranks hitting a cold parameter pack it once, not once each.
type frozenForms struct {
	mu   sync.Mutex
	f64  widthForms[float64]
	f32  widthForms[float32]
	bn32 atomic.Pointer[bnFold32]
}

// widthForms are a parameter's forms at one element width.
type widthForms[T tensor.Float] struct {
	pack atomic.Pointer[tensor.Packed[T]]
	taps atomic.Pointer[[]T]
	vec  atomic.Pointer[[]T]
}

// formsAt returns the parameter's forms at width T.
func formsAt[T tensor.Float](f *frozenForms) *widthForms[T] {
	return tensor.Select[*widthForms[T]](&f.f64, &f.f32)
}

// Process-wide construction counters: diagnostics for tests and
// profiles that must show a warm model does no per-job weight work.
var (
	formBuilds  atomic.Int64
	glorotInits atomic.Int64
)

// FormBuilds returns how many derived weight forms (packings, scatter
// layouts, conversions, folds) this process has built so far.
func FormBuilds() int64 { return formBuilds.Load() }

// GlorotInits returns how many parameters this process has
// Glorot-initialized so far.
func GlorotInits() int64 { return glorotInits.Load() }

// Update runs write on the parameter's values, then drops every form
// derived from them and advances the generation. It is the one way to
// change a parameter's values.
func (p *Param) Update(write func(w []float64)) {
	write(p.Value.Data)
	p.invalidate()
}

// invalidate drops every form derived from the parameter's values. Only
// Update and BatchNorm's running statistics, which the folded float32
// form bakes in, call it.
func (p *Param) invalidate() {
	p.gen.Add(1)
	p.forms.Store(nil)
}

// Gen returns the parameter's generation: it changes exactly when the
// parameter's forms are dropped, so caches derived from several
// parameters compare generations to notice a weight change.
func (p *Param) Gen() uint64 { return p.gen.Load() }

func (p *Param) frozen() *frozenForms {
	for {
		if f := p.forms.Load(); f != nil {
			return f
		}
		if f := new(frozenForms); p.forms.CompareAndSwap(nil, f) {
			return f
		}
	}
}

// form is the body of every form accessor: a lock-free load of the
// built form, or, on a cold slot, a build under the parameter's lock
// unless another goroutine got there first.
func form[T any](f *frozenForms, slot *atomic.Pointer[T], build func() *T) *T {
	if v := slot.Load(); v != nil {
		return v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if v := slot.Load(); v != nil {
		return v
	}
	v := build()
	formBuilds.Add(1)
	slot.Store(v)
	return v
}

// PackedTransposed returns the panel packing at width T of the
// parameter's transpose, viewing its data as a row-major n x k matrix
// (higher-rank conv kernels collapse). A parameter is always viewed at
// one shape. At float32 the pack is where the float64 weights convert.
func PackedTransposed[T tensor.Float](p *Param, n, k int) *tensor.Packed[T] {
	f := p.frozen()
	return form(f, &formsAt[T](f).pack, func() *tensor.Packed[T] {
		pb := &tensor.Packed[T]{}
		pb.PackTransposed(p.Value.Data, n, k)
		return pb
	})
}

// Vec returns the parameter's flat data at width T (biases, and the
// direct convolution's kernel).
func Vec[T tensor.Float](p *Param) []T {
	f := p.frozen()
	return *form(f, &formsAt[T](f).vec, func() *[]T {
		v := make([]T, len(p.Value.Data))
		tensor.Convert(v, p.Value.Data)
		return &v
	})
}

// scatterTaps returns the parameter's scatter layout (scatterLayout)
// at width T, built once per generation.
func scatterTaps[T tensor.Float](p *Param, out, in, k int) []T {
	f := p.frozen()
	return *form(f, &formsAt[T](f).taps, func() *[]T {
		t := scatterLayout[T](p.Value.Data, out, in, k)
		return &t
	})
}

// scatterLayout lays a [out, in, k, k, k] convolution kernel out for
// the scatter convolution at width T: [in*k*k, k, out] with the
// innermost tap axis reversed. One input voxel sends its k taps along a
// grid row to k adjacent output positions, the highest tap to the
// lowest position; reversing the axis makes those k out-wide weight
// rows contiguous in the order of the contiguous accumulator rows they
// update, so a row of taps is one axpy instead of k.
func scatterLayout[T tensor.Float](w []float64, out, in, k int) []T {
	t := make([]T, in*k*k*k*out)
	for o := 0; o < out; o++ {
		for r := 0; r < in*k*k; r++ {
			for kw := 0; kw < k; kw++ {
				t[(r*k+k-1-kw)*out+o] = T(w[(o*in*k*k+r)*k+kw])
			}
		}
	}
	return t
}

// bnFold32 is the evaluation-mode BatchNorm folded to one multiply-add
// per element: scale = γ/√(var+ε), shift = β − mean·scale.
type bnFold32 struct {
	scale, shift []float32
	betaGen      uint64
}

// folded32 returns the layer's folded normalization. It lives with
// gamma's forms and is stamped with beta's generation; the running
// statistics invalidate gamma when a training Forward updates them.
func (b *BatchNorm) folded32() *bnFold32 {
	f := b.Gamma.frozen()
	if v := f.bn32.Load(); v != nil && v.betaGen == b.Beta.Gen() {
		return v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	betaGen := b.Beta.Gen()
	if v := f.bn32.Load(); v != nil && v.betaGen == betaGen {
		return v
	}
	v := &bnFold32{scale: make([]float32, b.F), shift: make([]float32, b.F), betaGen: betaGen}
	for j := 0; j < b.F; j++ {
		s := b.Gamma.Value.Data[j] / math.Sqrt(b.RunVar[j]+b.Eps)
		v.scale[j] = float32(s)
		v.shift[j] = float32(b.Beta.Value.Data[j] - b.RunMean[j]*s)
	}
	formBuilds.Add(1)
	f.bn32.Store(v)
	return v
}
