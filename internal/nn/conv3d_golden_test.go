package nn

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"deepfusion/internal/tensor"
)

// convBackwardGoldenFile holds the float64 bit patterns
// TestConv3DBackwardBitsGolden pins, one "name value" line per case,
// sorted by name.
const convBackwardGoldenFile = "testdata/conv_backward_bits.golden"

// convGoldenCases are the golden's geometries: conv1's shape on the
// training grid over a sparse voxel input, a conv2-like layer over a
// post-ReLU input, and a wide layer on the tests' 4³ grid.
var convGoldenCases = []struct {
	name       string
	in, out, k int
	g          int
	zeroX      float64 // share of zero input voxels
	relu       bool    // clamp the input at zero, as after a ReLU
	zeroGrad   float64 // share of zero output gradients
	batch      []int
}{
	{"g8_16to8_k5_sparse", 16, 8, 5, 8, 0.85, false, 0.3, []int{4, 1}},
	{"g8_8to8_k3_relu", 8, 8, 3, 8, 0, true, 0.5, []int{4, 1}},
	{"g4_16to16_k3", 16, 16, 3, 4, 0.5, false, 0.3, []int{4, 1}},
}

// uniformFill sets each element of xs to a uniform value in (-1, 1),
// or to zero with probability zeros. It draws no normal deviates, so
// no math.Exp runs and the bits are the same on every target.
func uniformFill(rng *rand.Rand, xs []float64, zeros float64) {
	for i := range xs {
		v := 2*rng.Float64() - 1
		if rng.Float64() < zeros {
			v = 0
		}
		xs[i] = v
	}
}

// bitsString renders values as their float64 bit patterns in hex when
// there are few, otherwise as their count and a SHA-256 of their
// little-endian bits.
func bitsString(vs []float64) string {
	if len(vs) <= 16 {
		words := make([]string, len(vs))
		for i, v := range vs {
			words[i] = fmt.Sprintf("%016x", math.Float64bits(v))
		}
		return strings.Join(words, " ")
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("n=%d sha256=%x", len(vs), h.Sum(nil))
}

// convGoldenLayer builds one golden case's layer and its input and
// output gradient, from uniform draws only.
func convGoldenLayer(in, out, k, g, batch int, zeroX float64, relu bool, zeroGrad float64, seed int64) (*Conv3D, *tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	c := NewConv3D(rng, in, out, k)
	c.W.Update(func(w []float64) { uniformFill(rng, w, 0) })
	c.B.Update(func(w []float64) { uniformFill(rng, w, 0) })
	x := tensor.New(batch, in, g, g, g)
	uniformFill(rng, x.Data, zeroX)
	if relu {
		for i, v := range x.Data {
			x.Data[i] = max(v, 0)
		}
	}
	grad := tensor.New(batch, out, g, g, g)
	uniformFill(rng, grad.Data, zeroGrad)
	return c, x, grad
}

// TestConv3DBackwardBitsGolden pins the exact bits of the convolution's
// backward pass — W.Grad, B.Grad and dx of Backward, and the gradients
// of BackwardParams — at the training geometries, each accumulated
// twice so the second pass adds onto non-zero gradients.
// fusion.TestTrainBitsGolden covers only its tiny 4³ model; this covers
// conv1's 8³ k5 shape and wider layers. A mismatch prints the line the
// golden file would need; the file changes only with an intended change
// of gradient bits.
func TestConv3DBackwardBitsGolden(t *testing.T) {
	got := map[string]string{}
	for ci, tc := range convGoldenCases {
		for _, batch := range tc.batch {
			name := fmt.Sprintf("Conv3D/%s/b%d/", tc.name, batch)
			c, x, grad := convGoldenLayer(tc.in, tc.out, tc.k, tc.g, batch, tc.zeroX, tc.relu, tc.zeroGrad, int64(100*ci+batch))
			c.Forward(x)
			zeroGrads(c.Params())
			c.Backward(grad)
			dx := c.Backward(grad)
			got[name+"Backward/W.Grad"] = bitsString(c.W.Grad.Data)
			got[name+"Backward/B.Grad"] = bitsString(c.B.Grad.Data)
			got[name+"Backward/dx"] = bitsString(dx.Data)
			zeroGrads(c.Params())
			c.BackwardParams(grad)
			c.BackwardParams(grad)
			got[name+"BackwardParams/W.Grad"] = bitsString(c.W.Grad.Data)
			got[name+"BackwardParams/B.Grad"] = bitsString(c.B.Grad.Data)
		}
	}

	want := map[string]string{}
	f, err := os.Open(convBackwardGoldenFile)
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
			t.Errorf("bits differ from %s:\n%s %s", convBackwardGoldenFile, name, got[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d cases, the test computes %d", convBackwardGoldenFile, len(want), len(got))
	}
}

// TestConv3DBackwardIndependentOfCPUs pins that the backward pass's
// bits do not depend on GOMAXPROCS: the parameter gradients are summed
// over fixed blocks of samples, not over one block per worker.
func TestConv3DBackwardIndependentOfCPUs(t *testing.T) {
	for _, batch := range []int{5, 12} {
		c, x, grad := convGoldenLayer(8, 8, 3, 4, batch, 0.5, false, 0.3, int64(batch))
		c.Forward(x)
		var want []string
		for _, procs := range []int{1, 2, 3, 8} {
			prev := runtime.GOMAXPROCS(procs)
			zeroGrads(c.Params())
			dx := c.Backward(grad)
			runtime.GOMAXPROCS(prev)
			got := []string{bitsString(c.W.Grad.Data), bitsString(c.B.Grad.Data), bitsString(dx.Data)}
			if want == nil {
				want = got
				continue
			}
			for i, what := range []string{"W.Grad", "B.Grad", "dx"} {
				if got[i] != want[i] {
					t.Errorf("batch %d: %s at GOMAXPROCS %d is %s, at 1 %s", batch, what, procs, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkConv3DBackward compares the backward pass against the
// direct reference loops at conv1's training geometry (8³ grid,
// 16→8 filters, k5, sparse voxels), at batch 1 and at the CNN's
// default training batch of 12.
func BenchmarkConv3DBackward(b *testing.B) {
	for _, bench := range []struct {
		name   string
		direct bool
		batch  int
	}{
		{"scatter/b1", false, 1},
		{"scatter/b12", false, 12},
		{"direct/b1", true, 1},
		{"direct/b12", true, 12},
	} {
		b.Run(bench.name, func(b *testing.B) {
			c := NewConv3D(rand.New(rand.NewSource(1)), 16, 8, 5)
			c.Direct = bench.direct
			x := tensor.New(bench.batch, 16, 8, 8, 8)
			sparseVoxels(rand.New(rand.NewSource(2)), x)
			grad := tensor.New(bench.batch, 8, 8, 8, 8)
			uniformFill(rand.New(rand.NewSource(3)), grad.Data, 0.5)
			c.Forward(x)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Backward(grad)
			}
		})
	}
}
