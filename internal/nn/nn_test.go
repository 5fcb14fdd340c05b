package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"deepfusion/internal/tensor"
)

// fill sets every element of x to v.
func fill(x *tensor.Tensor, v float64) {
	for i := range x.Data {
		x.Data[i] = v
	}
}

// randNormal fills x with N(0, std²) draws from rng.
func randNormal(x *tensor.Tensor, rng *rand.Rand, std float64) {
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * std
	}
}

// sum returns the sum of x's elements in storage order.
func sum(x *tensor.Tensor) float64 {
	s := 0.0
	for _, v := range x.Data {
		s += v
	}
	return s
}

// numGrad estimates d(loss)/d(x[i]) by central differences where loss
// is the sum of the layer output (so dLoss/dOut is all ones).
func numGrad(l Layer, x *tensor.Tensor, i int) float64 {
	const eps = 1e-5
	orig := x.Data[i]
	x.Data[i] = orig + eps
	up := sum(l.Forward(x))
	x.Data[i] = orig - eps
	down := sum(l.Forward(x))
	x.Data[i] = orig
	return (up - down) / (2 * eps)
}

func checkInputGrad(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	out := l.Forward(x)
	ones := tensor.New(out.Shape...)
	fill(ones, 1)
	dx := l.Backward(ones)
	for i := range x.Data {
		want := numGrad(l, x, i)
		if math.Abs(dx.Data[i]-want) > tol {
			t.Fatalf("input grad[%d] = %v, numeric %v", i, dx.Data[i], want)
		}
	}
}

// zeroGrads clears the gradients of every parameter in ps.
func zeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

func checkParamGrad(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	zeroGrads(l.Params())
	out := l.Forward(x)
	ones := tensor.New(out.Shape...)
	fill(ones, 1)
	l.Backward(ones)
	const eps = 1e-5
	for pi, p := range l.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			up := sum(l.Forward(x))
			p.Value.Data[i] = orig - eps
			down := sum(l.Forward(x))
			p.Value.Data[i] = orig
			want := (up - down) / (2 * eps)
			if math.Abs(p.Grad.Data[i]-want) > tol {
				t.Fatalf("param %d grad[%d] = %v, numeric %v", pi, i, p.Grad.Data[i], want)
			}
		}
	}
}

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 2, 3)
	d.W.Value = tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	d.B.Value = tensor.FromSlice([]float64{0.5, -0.5, 1}, 3)
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := d.Forward(x)
	want := []float64{3.5, 6.5, 12}
	for i, w := range want {
		if math.Abs(y.Data[i]-w) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(rng, 4, 3)
	x := tensor.New(5, 4)
	randNormal(x, rng, 1)
	checkInputGrad(t, d, x, 1e-7)
	checkParamGrad(t, d, x, 1e-6)
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []string{ActReLU, ActLReLU, ActSELU} {
		a := NewActivation(kind)
		x := tensor.New(3, 7)
		randNormal(x, rng, 1)
		// nudge away from the ReLU kink
		for i, v := range x.Data {
			if math.Abs(v) < 1e-3 {
				x.Data[i] = v + 0.01
			}
		}
		checkInputGrad(t, a, x, 1e-6)
	}
}

func TestUnknownActivationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewActivation("swish")
}

func TestSELUSelfNormalizingFixedPoint(t *testing.T) {
	// SELU applied to N(0,1) inputs should keep mean ~0 and var ~1.
	rng := rand.New(rand.NewSource(4))
	a := NewActivation(ActSELU)
	x := tensor.New(1, 50000)
	randNormal(x, rng, 1)
	y := a.Forward(x)
	m := sum(y) / float64(y.Len())
	if math.Abs(m) > 0.05 {
		t.Fatalf("SELU output mean = %v, want ~0", m)
	}
	v := 0.0
	for _, e := range y.Data {
		v += (e - m) * (e - m)
	}
	v /= float64(y.Len())
	if math.Abs(v-1) > 0.1 {
		t.Fatalf("SELU output var = %v, want ~1", v)
	}
}

func TestDropoutEvalIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDropout(rng, 0.5)
	x := tensor.New(2, 10)
	randNormal(x, rng, 1)
	y := Infer(d, x, NewWorkspace())
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("dropout must be identity in eval mode")
		}
	}
}

func TestDropoutTrainMaskAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout(rng, 0.5)
	x := tensor.New(1, 10000)
	fill(x, 1)
	y := d.Forward(x)
	zeros, scaled := 0, 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			scaled++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 4500 || zeros > 5500 {
		t.Fatalf("dropout rate off: %d/10000 zeroed", zeros)
	}
	if scaled+zeros != 10000 {
		t.Fatal("dropout output must be 0 or scaled input")
	}
	// Backward must use the same mask.
	g := tensor.New(1, 10000)
	fill(g, 1)
	dg := d.Backward(g)
	for i := range dg.Data {
		if (dg.Data[i] == 0) != (y.Data[i] == 0) {
			t.Fatal("backward mask mismatch")
		}
	}
}

func TestDropoutBadRatePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropout(rng, 1.0)
}

func TestBatchNormNormalizesTraining(t *testing.T) {
	b := NewBatchNorm(3)
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(64, 3)
	randNormal(x, rng, 5)
	for i := range x.Data {
		x.Data[i] += 10
	}
	y := b.Forward(x)
	for j := 0; j < 3; j++ {
		mean, vari := 0.0, 0.0
		for i := 0; i < 64; i++ {
			mean += y.At(i, j)
		}
		mean /= 64
		for i := 0; i < 64; i++ {
			d := y.At(i, j) - mean
			vari += d * d
		}
		vari /= 64
		if math.Abs(mean) > 1e-9 || math.Abs(vari-1) > 1e-2 {
			t.Fatalf("feature %d: mean %v var %v", j, mean, vari)
		}
	}
}

func TestBatchNormGradients(t *testing.T) {
	// Gradient check on a batch of one, which normalizes with the
	// running statistics (constants there).
	b := NewBatchNorm(4)
	rng := rand.New(rand.NewSource(9))
	for j := range b.RunMean {
		b.RunMean[j] = rng.NormFloat64()
		b.RunVar[j] = 0.5 + rng.Float64()
	}
	x := tensor.New(1, 4)
	randNormal(x, rng, 1)
	checkInputGrad(t, b, x, 1e-6)
}

func TestBatchNormTrainBackwardSumsToZero(t *testing.T) {
	// In training mode the per-feature input gradients of batch norm sum
	// to zero when the upstream gradient is constant (mean subtraction).
	b := NewBatchNorm(2)
	rng := rand.New(rand.NewSource(10))
	x := tensor.New(8, 2)
	randNormal(x, rng, 2)
	out := b.Forward(x)
	g := tensor.New(out.Shape...)
	fill(g, 1)
	dx := b.Backward(g)
	for j := 0; j < 2; j++ {
		s := 0.0
		for i := 0; i < 8; i++ {
			s += dx.At(i, j)
		}
		if math.Abs(s) > 1e-9 {
			t.Fatalf("train-mode dx column %d sums to %v, want 0", j, s)
		}
	}
}

func TestConv3DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewConv3D(rng, 2, 3, 3)
	x := tensor.New(2, 2, 4, 4, 4)
	randNormal(x, rng, 1)
	checkInputGrad(t, c, x, 1e-6)
	checkParamGrad(t, c, x, 1e-5)
}

func TestConv3DIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := NewConv3D(rng, 1, 1, 3)
	c.W.Value.Zero()
	c.B.Value.Zero()
	c.W.Value.Set(1, 0, 0, 1, 1, 1) // delta kernel at center
	x := tensor.New(1, 1, 3, 3, 3)
	randNormal(x, rng, 1)
	y := c.Forward(x)
	for i := range x.Data {
		if math.Abs(y.Data[i]-x.Data[i]) > 1e-12 {
			t.Fatal("identity kernel must reproduce input")
		}
	}
}

func TestConv3DEvenKernelPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewConv3D(rng, 1, 1, 4)
}

func TestMaxPool3DForwardBackward(t *testing.T) {
	m := NewMaxPool3D(2)
	x := tensor.New(1, 1, 2, 2, 2)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	y := m.Forward(x)
	if y.Len() != 1 || y.Data[0] != 7 {
		t.Fatalf("maxpool = %v", y.Data)
	}
	g := tensor.FromSlice([]float64{5}, 1, 1, 1, 1, 1)
	dx := m.Backward(g)
	for i, v := range dx.Data {
		want := 0.0
		if i == 7 {
			want = 5
		}
		if v != want {
			t.Fatalf("dx[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestMaxPool3DIndivisiblePanics(t *testing.T) {
	m := NewMaxPool3D(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Forward(tensor.New(1, 1, 3, 3, 3))
}

func TestFlattenRoundTrip(t *testing.T) {
	f := &Flatten{}
	x := tensor.New(2, 3, 4)
	y := f.Forward(x)
	if y.Rank() != 2 || y.Dim(1) != 12 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	g := tensor.New(2, 12)
	dx := f.Backward(g)
	if dx.Rank() != 3 || dx.Dim(2) != 4 {
		t.Fatalf("backward shape %v", dx.Shape)
	}
}

func TestSequentialComposesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s := &Sequential{Layers: []Layer{NewDense(rng, 3, 5), NewActivation(ActReLU), NewDense(rng, 5, 1)}}
	x := tensor.New(4, 3)
	randNormal(x, rng, 1)
	checkInputGrad(t, s, x, 1e-6)
	if len(s.Params()) != 4 {
		t.Fatalf("expected 4 params, got %d", len(s.Params()))
	}
}

func TestMSELoss(t *testing.T) {
	pred := tensor.FromSlice([]float64{1, 2}, 2)
	target := tensor.FromSlice([]float64{0, 4}, 2)
	loss, grad := MSELoss(pred, target)
	if math.Abs(loss-2.5) > 1e-12 { // (1 + 4)/2
		t.Fatalf("loss = %v, want 2.5", loss)
	}
	if math.Abs(grad.Data[0]-1) > 1e-12 || math.Abs(grad.Data[1]+2) > 1e-12 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

// trainToyRegression fits y = 2x1 - 3x2 + 1 with the given optimizer and
// returns the final loss.
func trainToyRegression(t *testing.T, makeOpt func([]*Param) Optimizer, steps int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	model := &Sequential{Layers: []Layer{NewDense(rng, 2, 8), NewActivation(ActReLU), NewDense(rng, 8, 1)}}
	opt := makeOpt(model.Params())
	x := tensor.New(64, 2)
	randNormal(x, rng, 1)
	y := tensor.New(64, 1)
	for i := 0; i < 64; i++ {
		y.Set(2*x.At(i, 0)-3*x.At(i, 1)+1, i, 0)
	}
	loss := 0.0
	for s := 0; s < steps; s++ {
		pred := model.Forward(x)
		var grad *tensor.Tensor
		loss, grad = MSELoss(pred, y)
		model.Backward(grad)
		opt.Step()
	}
	return loss
}

func TestAdamConverges(t *testing.T) {
	if l := trainToyRegression(t, func(p []*Param) Optimizer { return NewAdam(p, 0.01) }, 400); l > 0.05 {
		t.Fatalf("Adam final loss %v", l)
	}
}

func TestAdamWConverges(t *testing.T) {
	if l := trainToyRegression(t, func(p []*Param) Optimizer { return NewAdamW(p, 0.01, 1e-4) }, 400); l > 0.05 {
		t.Fatalf("AdamW final loss %v", l)
	}
}

func TestRMSpropConverges(t *testing.T) {
	if l := trainToyRegression(t, func(p []*Param) Optimizer { return NewRMSprop(p, 0.005) }, 500); l > 0.1 {
		t.Fatalf("RMSprop final loss %v", l)
	}
}

func TestAdadeltaMakesProgress(t *testing.T) {
	base := trainToyRegression(t, func(p []*Param) Optimizer { return NewAdadelta(p) }, 1)
	l := trainToyRegression(t, func(p []*Param) Optimizer { return NewAdadelta(p) }, 600)
	if l >= base/2 {
		t.Fatalf("Adadelta did not reduce loss: %v -> %v", base, l)
	}
}

func TestNewOptimizerNames(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	d := NewDense(rng, 2, 2)
	for _, name := range []string{"adam", "adamw", "rmsprop", "adadelta"} {
		if NewOptimizer(name, d.Params(), 0.01) == nil {
			t.Fatalf("nil optimizer for %s", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown optimizer")
		}
	}()
	NewOptimizer("sgd", d.Params(), 0.01)
}

func TestSaveLoadParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := NewDense(rng, 3, 4)
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	b := NewDense(rng, 3, 4)
	if err := LoadParams(&buf, b.Params()); err != nil {
		t.Fatal(err)
	}
	for i := range a.W.Value.Data {
		if a.W.Value.Data[i] != b.W.Value.Data[i] {
			t.Fatal("weights differ after round trip")
		}
	}
}

func TestLoadParamsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := NewDense(rng, 3, 4)
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	b := NewDense(rng, 4, 4)
	if err := LoadParams(&buf, b.Params()); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := NewDense(rng, 3, 4)
	b := NewDense(rng, 3, 4)
	if err := CopyParams(b.Params(), a.Params()); err != nil {
		t.Fatal(err)
	}
	if a.W.Value.Data[0] != b.W.Value.Data[0] {
		t.Fatal("copy failed")
	}
	c := NewDense(rng, 2, 4)
	if err := CopyParams(c.Params(), a.Params()); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestGlorotInitScale(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	p := NewParam("w", 100, 100)
	GlorotInit(rng, p, 100, 100)
	std := 0.0
	for _, v := range p.Value.Data {
		std += v * v
	}
	std = math.Sqrt(std / float64(p.Value.Len()))
	want := math.Sqrt(2.0 / 200)
	if math.Abs(std-want) > 0.01 {
		t.Fatalf("glorot std %v, want ~%v", std, want)
	}
}

func TestConv3DBatchConsistency(t *testing.T) {
	// A batch forward must equal per-sample forwards.
	rng := rand.New(rand.NewSource(30))
	c := NewConv3D(rng, 2, 3, 3)
	batch := tensor.New(3, 2, 4, 4, 4)
	randNormal(batch, rng, 1)
	full := c.Forward(batch)
	per := batch.Len() / 3
	outPer := full.Len() / 3
	for n := 0; n < 3; n++ {
		single := tensor.FromSlice(append([]float64(nil), batch.Data[n*per:(n+1)*per]...), 1, 2, 4, 4, 4)
		got := c.Forward(single)
		for i := 0; i < outPer; i++ {
			if math.Abs(got.Data[i]-full.Data[n*outPer+i]) > 1e-12 {
				t.Fatalf("sample %d diverges from batch at %d", n, i)
			}
		}
	}
}

func TestAdamWDecayShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := NewDense(rng, 4, 4)
	b := NewDense(rng, 4, 4)
	CopyParams(b.Params(), a.Params())
	optPlain := NewAdam(a.Params(), 0.01)
	optDecay := NewAdamW(b.Params(), 0.01, 0.1)
	// Same zero gradient steps: only decay moves weights.
	for i := 0; i < 10; i++ {
		optPlain.Step()
		optDecay.Step()
	}
	sq := func(w *tensor.Tensor) (s float64) {
		for _, v := range w.Data {
			s += v * v
		}
		return s
	}
	if sqA, sqB := sq(a.W.Value), sq(b.W.Value); sqB >= sqA {
		t.Fatalf("AdamW decay did not shrink weights: |W|² %v vs %v", sqB, sqA)
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	b := NewBatchNorm(2)
	rng := rand.New(rand.NewSource(33))
	// Train on shifted data to move running stats.
	for i := 0; i < 50; i++ {
		x := tensor.New(16, 2)
		randNormal(x, rng, 1)
		for j := range x.Data {
			x.Data[j] += 5
		}
		b.Forward(x)
	}
	// Evaluation, and training on a single sample, must normalize with
	// the running stats, not batch stats (a batch of 1 would divide by
	// zero variance).
	x := tensor.FromSlice([]float64{5, 5}, 1, 2)
	for _, y := range []*tensor.Tensor{Infer(b, x, NewWorkspace()), b.Forward(x)} {
		for _, v := range y.Data {
			if math.Abs(v) > 1.0 {
				t.Fatalf("eval-mode output %v; running stats not applied", v)
			}
		}
	}
}
