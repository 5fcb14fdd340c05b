// Package graph implements the spatial graph convolution building
// blocks of the SG-CNN: a gated graph convolution stage (in the style
// of Gated Graph Sequence Neural Networks / PotentialNet) and the
// gated gather pooling that reduces ligand-node embeddings to a fixed
// graph feature vector. Both implement explicit reverse-mode
// backpropagation compatible with the nn package's Param/Optimizer
// machinery.
package graph

import (
	"math"
	"math/rand"

	"deepfusion/internal/featurize"
	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// GGConv is one gated graph convolution stage of width H run for K
// message-passing steps over a fixed edge type (covalent or
// non-covalent). The update is a coupled-gate GRU:
//
//	m  = A_norm (h Wmsg)
//	z  = sigmoid(m Uz + h Wz + bz)
//	ht = tanh   (m Uh + h Wh + bh)
//	h' = (1-z) .* h + z .* ht
//
// where A_norm averages incoming messages.
type GGConv struct {
	H, K int

	Wmsg, Uz, Wz, Uh, Wh *nn.Param // [H, H]
	Bz, Bh               *nn.Param // [H]

	steps []ggStep
	edges []featurize.Edge
	inDeg []float64
}

type ggStep struct {
	hIn, hw, m, z, ht *tensor.Tensor
}

// NewGGConv constructs a gated graph convolution of width h with k
// message-passing steps.
func NewGGConv(rng *rand.Rand, h, k int) *GGConv {
	g := &GGConv{
		H: h, K: k,
		Wmsg: nn.NewParam("gg.wmsg", h, h),
		Uz:   nn.NewParam("gg.uz", h, h),
		Wz:   nn.NewParam("gg.wz", h, h),
		Uh:   nn.NewParam("gg.uh", h, h),
		Wh:   nn.NewParam("gg.wh", h, h),
		Bz:   nn.NewParam("gg.bz", h),
		Bh:   nn.NewParam("gg.bh", h),
	}
	for _, p := range []*nn.Param{g.Wmsg, g.Uz, g.Wz, g.Uh, g.Wh} {
		nn.GlorotInit(rng, p, h, h)
	}
	return g
}

// Params returns the trainable parameters.
func (g *GGConv) Params() []*nn.Param {
	return []*nn.Param{g.Wmsg, g.Uz, g.Wz, g.Uh, g.Wh, g.Bz, g.Bh}
}

// Forward runs K gated message-passing steps of h ([N, H]) over edges.
func (g *GGConv) Forward(h *tensor.Tensor, edges []featurize.Edge) *tensor.Tensor {
	n := h.Dim(0)
	g.edges = edges
	g.inDeg = make([]float64, n)
	for _, e := range edges {
		g.inDeg[e.To]++
	}
	g.steps = g.steps[:0]
	for step := 0; step < g.K; step++ {
		hw := tensor.MatMulTransB(h, g.Wmsg.Value) // [N, H]
		m := tensor.New(n, g.H)
		for _, e := range edges {
			src := hw.Row(e.From)
			dst := m.Row(e.To)
			inv := 1 / g.inDeg[e.To]
			for j, v := range src {
				dst[j] += v * inv
			}
		}
		zpre := tensor.MatMulTransB(m, g.Uz.Value)
		zpre.AddInPlace(tensor.MatMulTransB(h, g.Wz.Value))
		htpre := tensor.MatMulTransB(m, g.Uh.Value)
		htpre.AddInPlace(tensor.MatMulTransB(h, g.Wh.Value))
		for i := 0; i < n; i++ {
			sigmoidRow(zpre.Row(i), g.Bz.Value.Data)
			tanhRow(htpre.Row(i), g.Bh.Value.Data)
		}
		z, ht := zpre, htpre // now activated in place
		hOut := tensor.New(n, g.H)
		for i := range hOut.Data {
			hOut.Data[i] = (1-z.Data[i])*h.Data[i] + z.Data[i]*ht.Data[i]
		}
		g.steps = append(g.steps, ggStep{hIn: h, hw: hw, m: m, z: z, ht: ht})
		h = hOut
	}
	return h
}

// Backward propagates grad ([N, H], gradient w.r.t. the output of
// Forward) through all K steps, accumulating parameter gradients, and
// returns the gradient w.r.t. the input node features.
func (g *GGConv) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for step := len(g.steps) - 1; step >= 0; step-- {
		st := g.steps[step]
		n := st.hIn.Dim(0)
		dz := tensor.New(n, g.H)
		dht := tensor.New(n, g.H)
		dh := tensor.New(n, g.H) // grad into h (input of this step)
		for i := range grad.Data {
			dz.Data[i] = grad.Data[i] * (st.ht.Data[i] - st.hIn.Data[i])
			dht.Data[i] = grad.Data[i] * st.z.Data[i]
			dh.Data[i] = grad.Data[i] * (1 - st.z.Data[i])
		}
		// Through the activations.
		for i := range dz.Data {
			z := st.z.Data[i]
			dz.Data[i] *= z * (1 - z)
			ht := st.ht.Data[i]
			dht.Data[i] *= 1 - ht*ht
		}
		// Bias gradients.
		for i := 0; i < n; i++ {
			zr, hr := dz.Row(i), dht.Row(i)
			for j := 0; j < g.H; j++ {
				g.Bz.Grad.Data[j] += zr[j]
				g.Bh.Grad.Data[j] += hr[j]
			}
		}
		// zpre = m Uz^T + h Wz^T ; htpre = m Uh^T + h Wh^T
		g.Uz.Grad.AddInPlace(tensor.MatMulTransA(dz, st.m))
		g.Wz.Grad.AddInPlace(tensor.MatMulTransA(dz, st.hIn))
		g.Uh.Grad.AddInPlace(tensor.MatMulTransA(dht, st.m))
		g.Wh.Grad.AddInPlace(tensor.MatMulTransA(dht, st.hIn))
		dm := tensor.MatMul(dz, g.Uz.Value)
		dm.AddInPlace(tensor.MatMul(dht, g.Uh.Value))
		dh.AddInPlace(tensor.MatMul(dz, g.Wz.Value))
		dh.AddInPlace(tensor.MatMul(dht, g.Wh.Value))
		// m = A_norm (h Wmsg^T): scatter transpose.
		dhw := tensor.New(n, g.H)
		for _, e := range g.edges {
			src := dm.Row(e.To)
			dst := dhw.Row(e.From)
			inv := 1 / g.inDeg[e.To]
			for j, v := range src {
				dst[j] += v * inv
			}
		}
		g.Wmsg.Grad.AddInPlace(tensor.MatMulTransA(dhw, st.hIn))
		dh.AddInPlace(tensor.MatMul(dhw, g.Wmsg.Value))
		grad = dh
	}
	return grad
}

// Segment addresses one graph inside a disjoint-union node batch: the
// row where its nodes start and how many of those rows are ligand
// atoms (ligand nodes lead each graph's block, as in featurize.Graph).
type Segment struct {
	Start     int
	NumLigand int
}

// Gather is the PotentialNet-style gated pooling over ligand nodes:
//
//	gate_i = sigmoid([h_i, x_i] Wg + bg)
//	out    = sum_{i < numLigand} gate_i .* tanh(h_i Wo + bo)
//
// producing a fixed-width graph embedding from variable-size graphs.
// ForwardSegments pools a whole disjoint-union batch in one pass,
// returning one embedding row per segment; Forward is its B=1 case.
type Gather struct {
	HIn, XIn, Out int

	Wg *nn.Param // [Out, HIn+XIn]
	Bg *nn.Param // [Out]
	Wo *nn.Param // [Out, HIn]
	Bo *nn.Param // [Out]

	lastH, lastX       *tensor.Tensor
	lastGate, lastTanh *tensor.Tensor
	lastSegs           []Segment
}

// NewGather constructs a gather stage reducing [N, hIn] node embeddings
// (with [N, xIn] raw features) to a [1, out] graph vector.
func NewGather(rng *rand.Rand, hIn, xIn, out int) *Gather {
	ga := &Gather{
		HIn: hIn, XIn: xIn, Out: out,
		Wg: nn.NewParam("gather.wg", out, hIn+xIn),
		Bg: nn.NewParam("gather.bg", out),
		Wo: nn.NewParam("gather.wo", out, hIn),
		Bo: nn.NewParam("gather.bo", out),
	}
	nn.GlorotInit(rng, ga.Wg, hIn+xIn, out)
	nn.GlorotInit(rng, ga.Wo, hIn, out)
	return ga
}

// Params returns the trainable parameters.
func (ga *Gather) Params() []*nn.Param {
	return []*nn.Param{ga.Wg, ga.Bg, ga.Wo, ga.Bo}
}

// Forward pools the first numLigand rows of h (raw features x aligned
// row-wise) into a [1, Out] graph embedding.
func (ga *Gather) Forward(h, x *tensor.Tensor, numLigand int) *tensor.Tensor {
	return ga.ForwardSegments(h, x, []Segment{{Start: 0, NumLigand: numLigand}})
}

// ForwardSegments pools each segment's ligand rows of the
// disjoint-union batch h (raw features x aligned row-wise) into one
// embedding row per segment, returning [len(segs), Out]. Per-row math
// is identical to Forward, so batched and single-graph pooling agree
// bitwise.
func (ga *Gather) ForwardSegments(h, x *tensor.Tensor, segs []Segment) *tensor.Tensor {
	ga.lastH, ga.lastX = h, x
	ga.lastSegs = append(ga.lastSegs[:0], segs...)
	nl := 0
	for _, s := range segs {
		nl += s.NumLigand
	}
	hx := tensor.New(nl, ga.HIn+ga.XIn)
	hl := tensor.New(nl, ga.HIn)
	r := 0
	for _, s := range segs {
		for i := 0; i < s.NumLigand; i++ {
			copy(hx.Row(r)[:ga.HIn], h.Row(s.Start+i))
			copy(hx.Row(r)[ga.HIn:], x.Row(s.Start+i))
			copy(hl.Row(r), h.Row(s.Start+i))
			r++
		}
	}
	gate := tensor.MatMulTransB(hx, ga.Wg.Value)
	th := tensor.MatMulTransB(hl, ga.Wo.Value)
	out := tensor.New(len(segs), ga.Out)
	r = 0
	for b, s := range segs {
		dst := out.Row(b)
		for i := 0; i < s.NumLigand; i++ {
			gr, tr := gate.Row(r), th.Row(r)
			sigmoidRow(gr, ga.Bg.Value.Data)
			tanhRow(tr, ga.Bo.Value.Data)
			for j := range dst {
				dst[j] += gr[j] * tr[j]
			}
			r++
		}
	}
	ga.lastGate, ga.lastTanh = gate, th
	return out
}

// Backward propagates grad ([B, Out], one row per segment of the last
// ForwardSegments call) to the node embeddings, returning d(h) of
// shape [N, HIn] (zero rows for protein nodes).
func (ga *Gather) Backward(grad *tensor.Tensor) *tensor.Tensor {
	nl := 0
	for _, s := range ga.lastSegs {
		nl += s.NumLigand
	}
	dgate := tensor.New(nl, ga.Out)
	dtanh := tensor.New(nl, ga.Out)
	r := 0
	for b, s := range ga.lastSegs {
		gv := grad.Row(b)
		for i := 0; i < s.NumLigand; i++ {
			gr, tr := ga.lastGate.Row(r), ga.lastTanh.Row(r)
			dgr, dtr := dgate.Row(r), dtanh.Row(r)
			for j := 0; j < ga.Out; j++ {
				dgr[j] = gv[j] * tr[j] * gr[j] * (1 - gr[j])
				dtr[j] = gv[j] * gr[j] * (1 - tr[j]*tr[j])
				ga.Bg.Grad.Data[j] += dgr[j]
				ga.Bo.Grad.Data[j] += dtr[j]
			}
			r++
		}
	}
	hx := tensor.New(nl, ga.HIn+ga.XIn)
	hl := tensor.New(nl, ga.HIn)
	r = 0
	for _, s := range ga.lastSegs {
		for i := 0; i < s.NumLigand; i++ {
			copy(hx.Row(r)[:ga.HIn], ga.lastH.Row(s.Start+i))
			copy(hx.Row(r)[ga.HIn:], ga.lastX.Row(s.Start+i))
			copy(hl.Row(r), ga.lastH.Row(s.Start+i))
			r++
		}
	}
	ga.Wg.Grad.AddInPlace(tensor.MatMulTransA(dgate, hx))
	ga.Wo.Grad.AddInPlace(tensor.MatMulTransA(dtanh, hl))
	dhx := tensor.MatMul(dgate, ga.Wg.Value) // [nl, HIn+XIn]
	dhl := tensor.MatMul(dtanh, ga.Wo.Value) // [nl, HIn]
	dh := tensor.New(ga.lastH.Shape...)
	r = 0
	for _, s := range ga.lastSegs {
		for i := 0; i < s.NumLigand; i++ {
			dst := dh.Row(s.Start + i)
			a, b := dhx.Row(r), dhl.Row(r)
			for j := 0; j < ga.HIn; j++ {
				dst[j] = a[j] + b[j]
			}
			r++
		}
	}
	return dh
}

// Project is a per-node linear projection [N, In] -> [N, Out] used to
// lift raw node features into the hidden width and to bridge stages of
// different widths.
type Project struct {
	In, Out int
	W       *nn.Param
	B       *nn.Param

	lastX *tensor.Tensor
}

// NewProject constructs the projection.
func NewProject(rng *rand.Rand, in, out int) *Project {
	p := &Project{In: in, Out: out, W: nn.NewParam("proj.w", out, in), B: nn.NewParam("proj.b", out)}
	nn.GlorotInit(rng, p.W, in, out)
	return p
}

// Params returns the trainable parameters.
func (p *Project) Params() []*nn.Param { return []*nn.Param{p.W, p.B} }

// Forward applies the projection.
func (p *Project) Forward(x *tensor.Tensor) *tensor.Tensor {
	p.lastX = x
	out := tensor.MatMulTransB(x, p.W.Value)
	out.AddToRows(p.B.Value.Data)
	return out
}

// Backward accumulates parameter gradients and returns d(x).
func (p *Project) Backward(grad *tensor.Tensor) *tensor.Tensor {
	p.W.Grad.AddInPlace(tensor.MatMulTransA(grad, p.lastX))
	n := grad.Dim(0)
	for i := 0; i < n; i++ {
		row := grad.Row(i)
		for j, v := range row {
			p.B.Grad.Data[j] += v
		}
	}
	return tensor.MatMul(grad, p.W.Value)
}

// sigmoidRow sets x[j] = sigmoid(x[j] + b[j]) and tanhRow sets
// x[j] = tanh(x[j] + b[j]): the gate nonlinearities over one row, at
// either width. The exponential runs in float64 (the standard library
// has no float32 exp) and rounds once to T, so at float64 they are the
// plain formulas. A row per call keeps the per-element work free of
// calls other than the exponential.
func sigmoidRow[T tensor.Float](x, b []T) {
	b = b[:len(x)]
	for j, v := range x {
		v += b[j]
		if v >= 0 {
			x[j] = 1 / (1 + T(exp(float64(-v))))
		} else {
			e := T(exp(float64(v)))
			x[j] = e / (1 + e)
		}
	}
}

func tanhRow[T tensor.Float](x, b []T) {
	b = b[:len(x)]
	for j, v := range x {
		v += b[j]
		switch {
		case v > 20:
			x[j] = 1
		case v < -20:
			x[j] = -1
		default:
			e2 := T(exp(float64(2 * v)))
			x[j] = (e2 - 1) / (e2 + 1)
		}
	}
}

func exp(v float64) float64 { return math.Exp(v) }
