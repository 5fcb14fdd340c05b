package graph

import (
	"math/rand"
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// TestGraphForwardInferMatchesForward pins the graph stages' inference
// variants byte-identical to their training forwards.
func TestGraphForwardInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := nn.NewWorkspace()
	n, hW := 9, 12

	nodes := tensor.New(n, featurize.NodeFeatures)
	for i := range nodes.Data {
		nodes.Data[i] = rng.NormFloat64()
	}
	var edges []featurize.Edge
	for i := 0; i < n; i++ {
		for e := 0; e < 3; e++ {
			edges = append(edges, featurize.Edge{From: rng.Intn(n), To: i, Dist: rng.Float64() * 4})
		}
	}

	check := func(name string, want, got *tensor.Tensor) {
		t.Helper()
		if !want.SameShape(got) {
			t.Fatalf("%s: shape %v vs %v", name, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%s elem %d: infer %v != forward %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}

	proj := NewProject(rng, featurize.NodeFeatures, hW)
	h := proj.Forward(nodes)
	check("Project", h, InferProject(proj, nodes, ws))

	gg := NewGGConv(rng, hW, 2)
	hg := gg.Forward(h, edges)
	check("GGConv", hg, gg.ForwardInfer(h, edges, ws))

	ga := NewGather(rng, hW, featurize.NodeFeatures, hW)
	segs := []Segment{{Start: 0, NumLigand: 4}, {Start: 4, NumLigand: 3}}
	want := ga.ForwardSegments(hg, nodes, segs)
	// ForwardSegments activates its gate/tanh caches in place, so
	// recompute hg fresh for the inference call.
	hgi := gg.ForwardInfer(h, edges, ws)
	check("Gather", want, InferGather(ga, hgi, nodes, segs, ws))

	// Warm steady state allocates nothing.
	pass := func() {
		ws.Reset()
		hi := InferProject(proj, nodes, ws)
		hi = gg.ForwardInfer(hi, edges, ws)
		InferGather(ga, hi, nodes, segs, ws)
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	if avg := testing.AllocsPerRun(50, pass); avg != 0 {
		t.Fatalf("warm graph inference pass allocates %.1f times per run, want 0", avg)
	}
}
