package fusion

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/graph"
	"deepfusion/internal/nn"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// f32GoldenFile holds the float32 bit patterns TestF32BitsGolden pins,
// one "name value" line per case, sorted by name.
const f32GoldenFile = "testdata/f32_bits.golden"

// f32Bits renders float32 values for the golden: their bit patterns in
// hex when there are few, otherwise the count and a SHA-256 of their
// little-endian bits.
func f32Bits(vs []float32) string {
	if len(vs) <= 16 {
		words := make([]string, len(vs))
		for i, v := range vs {
			words[i] = fmt.Sprintf("%08x", math.Float32bits(v))
		}
		return strings.Join(words, " ")
	}
	h := sha256.New()
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("n=%d sha256=%x", len(vs), h.Sum(nil))
}

// randF32 fills x with normal values, zero with probability zeros.
func randF32(rng *rand.Rand, x *tensor.F32, zeros float64) {
	for i := range x.Data {
		if rng.Float64() >= zeros {
			x.Data[i] = float32(rng.NormFloat64())
		}
	}
}

// goldenScores scores a fixed batch at f32 through every model family
// on the repro grid and on a 16^3 grid at the paper's resolution and
// conv/dense widths, each with zero and with non-zero conv biases.
func goldenScores(got map[string]string) {
	paper16 := featurize.PaperVoxelOptions()
	paper16.GridSize = 16
	grids := []struct {
		name              string
		vo                featurize.VoxelOptions
		f1, f2, denseNode int
	}{
		{"repro", featurize.DefaultVoxelOptions(), 8, 16, 32},
		{"paper16", paper16, 32, 64, 128},
	}
	gro := featurize.DefaultGraphOptions()
	for _, g := range grids {
		pre := featurize.NewPocketPrefeature(target.Protease1, g.vo, gro)
		mols := boxTestPoses(rand.New(rand.NewSource(21)), target.Protease1, 4)
		samples := []*Sample{
			FeaturizeComplexWithPrefeature(nil, pre, "a", mols[0], 0),
			FeaturizeComplexWithPrefeature(nil, pre, "b", mols[1], 0),
			FeaturizeComplex("c", target.Protease1, mols[2], 0, g.vo, gro),
			FeaturizeComplexWithPrefeature(nil, pre, "d", mols[3], 0),
		}
		for _, biased := range []bool{false, true} {
			cfg := DefaultCNN3DConfig()
			cfg.Voxel = g.vo
			cfg.ConvFilters1, cfg.ConvFilters2, cfg.DenseNodes = g.f1, g.f2, g.denseNode
			cnn := NewCNN3D(cfg, 11)
			if biased {
				rng := rand.New(rand.NewSource(12))
				setConvBiases(cnn, func(b *tensor.Tensor) { b.RandNormal(rng, 0.05) })
			}
			sg := NewSGCNN(DefaultSGCNNConfig(), 13)
			families := []struct {
				name string
				into func([]*Sample, *Workspace, []float64)
			}{
				{"CNN3D", cnn.PredictBatchInto},
				{"SGCNN", sg.PredictBatchInto},
				{"Late", (&LateFusion{CNN: cnn, SG: sg}).PredictBatchInto},
				{"Mid", NewFusion(DefaultMidFusionConfig(), cnn, sg, 14).PredictBatchInto},
				{"Coherent", NewFusion(DefaultCoherentConfig(), cnn, sg, 15).PredictBatchInto},
			}
			ws := NewWorkspaceFor(PrecisionF32)
			for _, f := range families {
				out := make([]float64, len(samples))
				f.into(samples, ws, out)
				scores := make([]float32, len(out))
				for i, v := range out {
					scores[i] = float32(v)
				}
				got[fmt.Sprintf("PredictBatchInto/%s/%s/biased=%v", f.name, g.name, biased)] = f32Bits(scores)
			}
		}
	}
}

// goldenKernels runs the f32 kernels below the models on fixed random
// operands: the box convolution between two boxes that do not nest, the
// gated graph convolution, and the packed GEMM with a full, a
// half-panel and a ragged tail.
func goldenKernels(got map[string]string) {
	rng := rand.New(rand.NewSource(31))
	ws := nn.NewWorkspace()

	for _, k := range []struct{ in, out, k int }{{3, 8, 3}, {2, 6, 5}} {
		c := nn.NewConv3D(rng, k.in, k.out, k.k)
		c.B.Value.RandNormal(rng, 0.5)
		c.B.Invalidate()
		in := tensor.Box{Lo: [3]int{1, 2, 0}, Hi: [3]int{7, 6, 5}}
		out := tensor.Box{Lo: [3]int{0, 3, 1}, Hi: [3]int{8, 9, 4}}
		d, h, w := in.Dims()
		x := tensor.NewF32(2, k.in, d, h, w)
		randF32(rng, x, 0.4)
		y := nn.InferBox(c, x, in, out, ws)
		got[fmt.Sprintf("Conv3D.ForwardInferBox32/k=%d/out=%d", k.k, k.out)] = f32Bits(y.Data)
	}

	gg := graph.NewGGConv(rng, 12, 2)
	gg.Bz.Value.RandNormal(rng, 0.3)
	gg.Bh.Value.RandNormal(rng, 0.3)
	gg.Bz.Invalidate()
	gg.Bh.Invalidate()
	const nodes = 20
	var edges []featurize.Edge
	for i := 0; i < 45; i++ {
		edges = append(edges, featurize.Edge{From: rng.Intn(nodes), To: rng.Intn(nodes), Dist: 4 * rng.Float64()})
	}
	hIn := tensor.NewF32(nodes, 12)
	randF32(rng, hIn, 0)
	got["GGConv.ForwardInfer32"] = f32Bits(gg.ForwardInfer32(hIn, edges, ws).Data)

	for _, n := range []int{16, 12, 11} {
		a, b, c := tensor.NewF32(5, 37), tensor.NewF32(37, n), tensor.NewF32(5, n)
		randF32(rng, a, 0.3)
		randF32(rng, b, 0)
		var pb tensor.PackedB32
		pb.Pack(b)
		tensor.MatMulPacked32Into(c, a, &pb)
		got[fmt.Sprintf("MatMulPacked32Into/n=%d", n)] = f32Bits(c.Data)
	}
}

// TestF32BitsGolden pins the exact float32 bits of the f32 inference
// path — model scores for every family and the kernels beneath them —
// against values recorded before the f32 and f64 stacks shared code.
// The other f32 tests bound the error against f64 or compare two f32
// kernels with each other, so a change that moved both sides of such a
// comparison would pass them; it would not pass this one. A mismatch
// prints the line the golden file would need; the file changes only
// with an intended change of f32 results.
func TestF32BitsGolden(t *testing.T) {
	got := map[string]string{}
	goldenScores(got)
	goldenKernels(got)

	want := map[string]string{}
	f, err := os.Open(f32GoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = value
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("f32 bits differ from %s:\n%s %s", f32GoldenFile, name, got[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d cases, the test computes %d", f32GoldenFile, len(want), len(got))
	}
}
