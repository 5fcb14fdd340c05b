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

// bitsOf renders values for a bits golden: their bit patterns in hex
// when there are few, otherwise the count and a SHA-256 of their
// little-endian bits.
func bitsOf[T tensor.Float](vs []T) string {
	size, bits := 8, func(v T) uint64 { return math.Float64bits(float64(v)) }
	if _, ok := any(T(0)).(float32); ok {
		size, bits = 4, func(v T) uint64 { return uint64(math.Float32bits(float32(v))) }
	}
	if len(vs) <= 16 {
		words := make([]string, len(vs))
		for i, v := range vs {
			words[i] = fmt.Sprintf("%0*x", 2*size, bits(v))
		}
		return strings.Join(words, " ")
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], bits(v))
		h.Write(b[:size])
	}
	return fmt.Sprintf("n=%d sha256=%x", len(vs), h.Sum(nil))
}

// randFill fills x with normal values, zero with probability zeros.
func randFill[T tensor.Float](rng *rand.Rand, x *tensor.Dense[T], zeros float64) {
	for i := range x.Data {
		if rng.Float64() >= zeros {
			x.Data[i] = T(rng.NormFloat64())
		}
	}
}

// goldenScores and goldenKernels compute the f32 golden's cases.
func goldenScores(got map[string]string)  { goldenScoresAt(PrecisionF32, got) }
func goldenKernels(got map[string]string) { goldenKernelsAt[float32](got) }

// goldenScoresAt scores a fixed batch at precision p through every
// model family on the repro grid and on a 16^3 grid at the paper's
// resolution and conv/dense widths, each with zero and with non-zero
// conv biases.
func goldenScoresAt(p Precision, got map[string]string) {
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
			ws := NewWorkspaceFor(p)
			for _, f := range families {
				out := make([]float64, len(samples))
				f.into(samples, ws, out)
				got[fmt.Sprintf("PredictBatchInto/%s/%s/biased=%v", f.name, g.name, biased)] = scoreBits(p, out)
			}
		}
	}
}

// scoreBits renders scores at the width p computed them in: an f32
// score is a float32 value carried in a float64, so narrowing it back
// is exact.
func scoreBits(p Precision, out []float64) string {
	if p == PrecisionF64 {
		return bitsOf(out)
	}
	scores := make([]float32, len(out))
	for i, v := range out {
		scores[i] = float32(v)
	}
	return bitsOf(scores)
}

// goldenKernelsAt runs the kernels below the models at width T on fixed
// random operands: the box convolution between two boxes that do not
// nest, the gated graph convolution, and the packed GEMM with a full, a
// half-panel and a ragged tail. Case names carry the width's entry
// point ("ForwardInfer32" at float32, "ForwardInfer" at float64).
func goldenKernelsAt[T tensor.Float](got map[string]string) {
	width := ""
	if _, ok := any(T(0)).(float32); ok {
		width = "32"
	}
	rng := rand.New(rand.NewSource(31))
	ws := nn.NewWorkspace()

	for _, k := range []struct{ in, out, k int }{{3, 8, 3}, {2, 6, 5}} {
		c := nn.NewConv3D(rng, k.in, k.out, k.k)
		c.B.Update(func([]float64) { c.B.Value.RandNormal(rng, 0.5) })
		in := tensor.Box{Lo: [3]int{1, 2, 0}, Hi: [3]int{7, 6, 5}}
		out := tensor.Box{Lo: [3]int{0, 3, 1}, Hi: [3]int{8, 9, 4}}
		d, h, w := in.Dims()
		x := tensor.FromSlice(make([]T, 2*k.in*d*h*w), 2, k.in, d, h, w)
		randFill(rng, x, 0.4)
		y := nn.InferBox(c, x, in, out, ws)
		got[fmt.Sprintf("Conv3D.ForwardInferBox%s/k=%d/out=%d", width, k.k, k.out)] = bitsOf(y.Data)
	}

	gg := graph.NewGGConv(rng, 12, 2)
	gg.Bz.Update(func([]float64) { gg.Bz.Value.RandNormal(rng, 0.3) })
	gg.Bh.Update(func([]float64) { gg.Bh.Value.RandNormal(rng, 0.3) })
	const nodes = 20
	var edges []featurize.Edge
	for i := 0; i < 45; i++ {
		edges = append(edges, featurize.Edge{From: rng.Intn(nodes), To: rng.Intn(nodes), Dist: 4 * rng.Float64()})
	}
	hIn := tensor.FromSlice(make([]T, nodes*12), nodes, 12)
	randFill(rng, hIn, 0)
	got["GGConv.ForwardInfer"+width] = bitsOf(graph.InferGGConv(gg, hIn, edges, ws).Data)

	for _, n := range []int{16, 12, 11} {
		a := tensor.FromSlice(make([]T, 5*37), 5, 37)
		b := tensor.FromSlice(make([]T, 37*n), 37, n)
		c := tensor.FromSlice(make([]T, 5*n), 5, n)
		randFill(rng, a, 0.3)
		randFill(rng, b, 0)
		var pb tensor.Packed[T]
		pb.Pack(b)
		tensor.MatMulPackedInto(c, a, &pb)
		got[fmt.Sprintf("MatMulPacked%sInto/n=%d", width, n)] = bitsOf(c.Data)
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
