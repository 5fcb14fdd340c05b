package graph

import (
	"math"
	"math/rand"
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/nn"
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

// ring returns a bidirectional ring graph over n nodes.
func ring(n int) []featurize.Edge {
	var es []featurize.Edge
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		es = append(es, featurize.Edge{From: i, To: j}, featurize.Edge{From: j, To: i})
	}
	return es
}

func TestGGConvShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewGGConv(rng, 6, 3)
	h := tensor.New(5, 6)
	randNormal(h, rng, 1)
	out := g.Forward(h, ring(5))
	if out.Dim(0) != 5 || out.Dim(1) != 6 {
		t.Fatalf("shape %v", out.Shape)
	}
	if len(g.Params()) != 7 {
		t.Fatalf("params = %d", len(g.Params()))
	}
}

func TestGGConvIsolatedNodesStable(t *testing.T) {
	// With no edges, messages are zero and the update becomes a gated
	// self-map; output must stay finite.
	rng := rand.New(rand.NewSource(2))
	g := NewGGConv(rng, 4, 2)
	h := tensor.New(3, 4)
	randNormal(h, rng, 1)
	out := g.Forward(h, nil)
	for _, v := range out.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite output for isolated nodes")
		}
	}
}

// gradient check: loss = sum(Forward(h)).
func TestGGConvInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGGConv(rng, 4, 2)
	edges := ring(4)
	h := tensor.New(4, 4)
	randNormal(h, rng, 1)

	out := g.Forward(h, edges)
	ones := tensor.New(out.Shape...)
	fill(ones, 1)
	dh := g.Backward(ones)

	const eps = 1e-6
	for i := range h.Data {
		orig := h.Data[i]
		h.Data[i] = orig + eps
		up := sum(g.Forward(h, edges))
		h.Data[i] = orig - eps
		down := sum(g.Forward(h, edges))
		h.Data[i] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(dh.Data[i]-want) > 1e-5 {
			t.Fatalf("dh[%d] = %v, numeric %v", i, dh.Data[i], want)
		}
	}
}

func TestGGConvParamGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewGGConv(rng, 3, 2)
	edges := ring(4)
	h := tensor.New(4, 3)
	randNormal(h, rng, 1)

	out := g.Forward(h, edges)
	ones := tensor.New(out.Shape...)
	fill(ones, 1)
	g.Backward(ones)

	const eps = 1e-6
	for pi, p := range g.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			up := sum(g.Forward(h, edges))
			p.Value.Data[i] = orig - eps
			down := sum(g.Forward(h, edges))
			p.Value.Data[i] = orig
			want := (up - down) / (2 * eps)
			if math.Abs(p.Grad.Data[i]-want) > 1e-5 {
				t.Fatalf("param %d grad[%d] = %v, numeric %v", pi, i, p.Grad.Data[i], want)
			}
		}
	}
}

func TestGatherShapesAndLigandOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ga := NewGather(rng, 4, 3, 6)
	h := tensor.New(5, 4)
	x := tensor.New(5, 3)
	randNormal(h, rng, 1)
	randNormal(x, rng, 1)
	out := ga.Forward(h, x, 2)
	if out.Dim(0) != 1 || out.Dim(1) != 6 {
		t.Fatalf("shape %v", out.Shape)
	}
	// Changing a protein node (index >= numLigand) must not change out.
	h.Set(99, 4, 0)
	out2 := ga.Forward(h, x, 2)
	for i := range out.Data {
		if out.Data[i] != out2.Data[i] {
			t.Fatal("protein node affected gather output")
		}
	}
}

func TestGatherInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ga := NewGather(rng, 3, 2, 4)
	h := tensor.New(4, 3)
	x := tensor.New(4, 2)
	randNormal(h, rng, 1)
	randNormal(x, rng, 1)

	out := ga.Forward(h, x, 3)
	ones := tensor.New(out.Shape...)
	fill(ones, 1)
	dh := ga.Backward(ones)

	const eps = 1e-6
	for i := range h.Data {
		orig := h.Data[i]
		h.Data[i] = orig + eps
		up := sum(ga.Forward(h, x, 3))
		h.Data[i] = orig - eps
		down := sum(ga.Forward(h, x, 3))
		h.Data[i] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(dh.Data[i]-want) > 1e-5 {
			t.Fatalf("dh[%d] = %v, numeric %v", i, dh.Data[i], want)
		}
	}
	// Protein rows must receive zero gradient.
	for j := 0; j < 3; j++ {
		if dh.At(3, j) != 0 {
			t.Fatal("protein node received gather gradient")
		}
	}
}

func TestGatherParamGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ga := NewGather(rng, 3, 2, 4)
	h := tensor.New(3, 3)
	x := tensor.New(3, 2)
	randNormal(h, rng, 1)
	randNormal(x, rng, 1)

	out := ga.Forward(h, x, 3)
	ones := tensor.New(out.Shape...)
	fill(ones, 1)
	ga.Backward(ones)

	const eps = 1e-6
	for pi, p := range ga.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			up := sum(ga.Forward(h, x, 3))
			p.Value.Data[i] = orig - eps
			down := sum(ga.Forward(h, x, 3))
			p.Value.Data[i] = orig
			want := (up - down) / (2 * eps)
			if math.Abs(p.Grad.Data[i]-want) > 1e-5 {
				t.Fatalf("param %d grad[%d] = %v, numeric %v", pi, i, p.Grad.Data[i], want)
			}
		}
	}
}

func TestProjectGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewProject(rng, 3, 5)
	x := tensor.New(4, 3)
	randNormal(x, rng, 1)
	out := p.Forward(x)
	if out.Dim(1) != 5 {
		t.Fatalf("shape %v", out.Shape)
	}
	ones := tensor.New(out.Shape...)
	fill(ones, 1)
	dx := p.Backward(ones)
	const eps = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := sum(p.Forward(x))
		x.Data[i] = orig - eps
		down := sum(p.Forward(x))
		x.Data[i] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(dx.Data[i]-want) > 1e-6 {
			t.Fatalf("dx[%d] = %v, numeric %v", i, dx.Data[i], want)
		}
	}
}

func TestSigmoidTanhNumerics(t *testing.T) {
	sigmoid := func(v float64) float64 { x := []float64{v}; sigmoidRow(x, []float64{0}); return x[0] }
	tanh := func(v float64) float64 { x := []float64{v}; tanhRow(x, []float64{0}); return x[0] }
	if v := sigmoid(0); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0) = %v", v)
	}
	if v := sigmoid(1000); v != 1 {
		t.Fatalf("sigmoid overflow: %v", v)
	}
	if v := sigmoid(-1000); v != 0 {
		t.Fatalf("sigmoid underflow: %v", v)
	}
	if v := tanh(0); v != 0 {
		t.Fatalf("tanh(0) = %v", v)
	}
	if v := tanh(100); v != 1 {
		t.Fatalf("tanh saturation: %v", v)
	}
	if v := tanh(0.5); math.Abs(v-math.Tanh(0.5)) > 1e-12 {
		t.Fatalf("tanh(0.5) = %v", v)
	}
}

// End-to-end: a tiny GGNN + gather can fit a simple graph-level target.
func TestGGNNLearnsGraphTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const h = 8
	proj := NewProject(rng, 2, h)
	conv := NewGGConv(rng, h, 2)
	gather := NewGather(rng, h, 2, h)
	head := nn.NewDense(rng, h, 1)
	var params []*nn.Param
	params = append(params, proj.Params()...)
	params = append(params, conv.Params()...)
	params = append(params, gather.Params()...)
	params = append(params, head.Params()...)
	opt := nn.NewAdam(params, 0.01)

	// Dataset: ring graphs whose target is the mean of feature 0.
	type sample struct {
		x     *tensor.Tensor
		edges []featurize.Edge
		y     float64
	}
	var data []sample
	for i := 0; i < 24; i++ {
		n := 3 + rng.Intn(4)
		x := tensor.New(n, 2)
		randNormal(x, rng, 1)
		s := 0.0
		for j := 0; j < n; j++ {
			s += x.At(j, 0)
		}
		data = append(data, sample{x: x, edges: ring(n), y: s / float64(n)})
	}
	var loss float64
	for epoch := 0; epoch < 150; epoch++ {
		loss = 0
		for _, s := range data {
			hN := proj.Forward(s.x)
			hN = conv.Forward(hN, s.edges)
			emb := gather.Forward(hN, s.x, s.x.Dim(0))
			pred := head.Forward(emb)
			target := tensor.FromSlice([]float64{s.y}, 1, 1)
			l, dpred := nn.MSELoss(pred, target)
			loss += l
			demb := head.Backward(dpred)
			dh := gather.Backward(demb)
			dh = conv.Backward(dh)
			proj.Backward(dh)
		}
		opt.Step()
	}
	loss /= float64(len(data))
	if loss > 0.05 {
		t.Fatalf("GGNN failed to fit: loss %v", loss)
	}
}

func TestGGConvDeterministicForward(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	g := NewGGConv(rng, 5, 2)
	h := tensor.New(4, 5)
	randNormal(h, rng, 1)
	edges := ring(4)
	a := g.Forward(h, edges)
	b := g.Forward(h, edges)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("forward not deterministic")
		}
	}
}

func TestGGConvMessageAveraging(t *testing.T) {
	// A node with two identical in-neighbors must receive the same
	// message as a node with one such neighbor (mean, not sum).
	rng := rand.New(rand.NewSource(41))
	g := NewGGConv(rng, 3, 1)
	h := tensor.New(4, 3)
	// nodes 0 and 1 identical features; node 2 has both as neighbors,
	// node 3 has only node 0.
	for j := 0; j < 3; j++ {
		h.Set(1.5, 0, j)
		h.Set(1.5, 1, j)
	}
	edges := []featurize.Edge{
		{From: 0, To: 2}, {From: 1, To: 2},
		{From: 0, To: 3},
	}
	out := g.Forward(h, edges)
	for j := 0; j < 3; j++ {
		if math.Abs(out.At(2, j)-out.At(3, j)) > 1e-12 {
			t.Fatal("in-degree normalization broken: sum instead of mean?")
		}
	}
}

func TestGatherZeroLigandNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ga := NewGather(rng, 3, 2, 4)
	h := tensor.New(2, 3)
	x := tensor.New(2, 2)
	out := ga.Forward(h, x, 0)
	for _, v := range out.Data {
		if v != 0 {
			t.Fatal("empty gather must be zero")
		}
	}
}
