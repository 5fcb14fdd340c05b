package nn

import (
	"math/rand"
	"testing"

	"deepfusion/internal/tensor"
)

// randBox returns a random non-empty box inside a d x h x w grid.
func randBox(rng *rand.Rand, d, h, w int) tensor.Box {
	var b tensor.Box
	for a, n := range []int{d, h, w} {
		b.Lo[a] = rng.Intn(n)
		b.Hi[a] = b.Lo[a] + 1 + rng.Intn(n-b.Lo[a])
	}
	return b
}

// crop copies box b of every channel of a [N, C, d, h, w] tensor.
func crop(x []float64, nc, d, h, w int, b tensor.Box) []float64 {
	bd, bh, bw := b.Dims()
	out := make([]float64, 0, nc*bd*bh*bw)
	for c := 0; c < nc; c++ {
		for z := b.Lo[0]; z < b.Hi[0]; z++ {
			for y := b.Lo[1]; y < b.Hi[1]; y++ {
				row := ((c*d+z)*h + y) * w
				out = append(out, x[row+b.Lo[2]:row+b.Hi[2]]...)
			}
		}
	}
	return out
}

// TestForwardInferBoxMatchesWholeGrid is the kernel-level property
// behind the voxel head's active box: with the input zero outside its
// box, the convolution evaluated between any two boxes — nested either
// way, overlapping, cut by the grid border — equals the whole-grid
// convolution restricted to the output box, bitwise, for the scatter
// and the direct algorithm at both precisions.
func TestForwardInferBoxMatchesWholeGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const d, h, w = 7, 6, 9
	grid := tensor.GridBox(d, h, w)
	for trial := 0; trial < 60; trial++ {
		k := []int{3, 5}[trial%2]
		c := NewConv3D(rng, 1+rng.Intn(3), []int{3, 8, 5}[trial%3], k)
		c.B.Update(func([]float64) { c.B.Value.RandNormal(rng, 0.5) })
		c.Direct = trial%4 == 3

		// The input is non-zero only inside in; half the time in is
		// larger than the occupied part.
		in, out := randBox(rng, d, h, w), randBox(rng, d, h, w)
		occupied := in
		if trial%2 == 0 {
			in = in.Union(randBox(rng, d, h, w))
		}
		x := tensor.New(2, c.In, d, h, w)
		for n := 0; n < 2*c.In; n++ {
			for z := occupied.Lo[0]; z < occupied.Hi[0]; z++ {
				for y := occupied.Lo[1]; y < occupied.Hi[1]; y++ {
					for xw := occupied.Lo[2]; xw < occupied.Hi[2]; xw++ {
						if rng.Float64() < 0.6 {
							x.Data[((n*d+z)*h+y)*w+xw] = rng.NormFloat64()
						}
					}
				}
			}
		}
		id, ih, iw := in.Dims()
		xin := tensor.FromSlice(crop(x.Data, 2*c.In, d, h, w, in), 2, c.In, id, ih, iw)

		ws := NewWorkspace()
		want := crop(InferBox(c, x, grid, grid, ws).Data, 2*c.Out, d, h, w, out)
		got := InferBox(c, xin, in, out, ws)
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("trial %d (k=%d direct=%v in=%v out=%v) f64 elem %d: box %v != whole grid %v", trial, k, c.Direct, in, out, i, got.Data[i], want[i])
			}
		}

		x32, xin32 := tensor.NewF32(x.Shape...), tensor.NewF32(xin.Shape...)
		x32.CopyFrom64(x)
		xin32.CopyFrom64(xin)
		full32 := InferBox(c, x32, grid, grid, ws)
		want64 := make([]float64, len(full32.Data))
		for i, v := range full32.Data {
			want64[i] = float64(v)
		}
		want = crop(want64, 2*c.Out, d, h, w, out)
		got32 := InferBox(c, xin32, in, out, ws)
		for i := range want {
			if float64(got32.Data[i]) != want[i] {
				t.Fatalf("trial %d (k=%d direct=%v in=%v out=%v) f32 elem %d: box %v != whole grid %v", trial, k, c.Direct, in, out, i, got32.Data[i], want[i])
			}
		}
	}
}

// TestForwardInferBoxEmptyInput: with no input box at all the output is
// the bias, which is how the empty-grid response starts.
func TestForwardInferBoxEmptyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewConv3D(rng, 2, 3, 3)
	c.B.Update(func([]float64) { c.B.Value.RandNormal(rng, 1) })
	ws := NewWorkspace()
	out := tensor.GridBox(2, 3, 2)
	y := InferBox(c, tensor.New(1, 2, 0, 0, 0), tensor.Box{}, out, ws)
	y32 := InferBox(c, tensor.NewF32(1, 2, 0, 0, 0), tensor.Box{}, out, ws)
	for o := 0; o < 3; o++ {
		for p := 0; p < out.Volume(); p++ {
			if y.Data[o*out.Volume()+p] != c.B.Value.Data[o] || y32.Data[o*out.Volume()+p] != float32(c.B.Value.Data[o]) {
				t.Fatalf("channel %d position %d: %v / %v, want bias %v", o, p, y.Data[o*out.Volume()+p], y32.Data[o*out.Volume()+p], c.B.Value.Data[o])
			}
		}
	}
}

// TestActivationInferInPlace pins the in-place activation to the
// allocating one, for every kind at both precisions.
func TestActivationInferInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := NewWorkspace()
	for _, kind := range []string{ActReLU, ActLReLU, ActSELU} {
		a := NewActivation(kind)
		x := inferInput(rng, 3, 17)
		x32 := tensor.NewF32(3, 17)
		x32.CopyFrom64(x)
		want, want32 := Infer(a, x, ws), Infer(a, x32, ws)
		InferInPlace(a, x)
		InferInPlace(a, x32)
		for i := range want.Data {
			if x.Data[i] != want.Data[i] || x32.Data[i] != want32.Data[i] {
				t.Fatalf("%s elem %d: in place %v / %v, allocating %v / %v", kind, i, x.Data[i], x32.Data[i], want.Data[i], want32.Data[i])
			}
		}
	}
}

// TestParamFormsBuildOnceAndInvalidate pins the compile-once contract
// of the parameter-owned weight forms: a form is built on first use,
// the same object is returned to every caller until Update, and a
// rebuilt form reflects the new values.
func TestParamFormsBuildOnceAndInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDense(rng, 5, 3)
	before := FormBuilds()
	pb, pb32, v := PackedTransposed[float64](d.W, 3, 5), PackedTransposed[float32](d.W, 3, 5), Vec[float32](d.B)
	if got := FormBuilds() - before; got != 3 {
		t.Fatalf("three cold forms built %d times", got)
	}
	if PackedTransposed[float64](d.W, 3, 5) != pb || PackedTransposed[float32](d.W, 3, 5) != pb32 || &Vec[float32](d.B)[0] != &v[0] {
		t.Fatal("a warm form was rebuilt")
	}
	if got := FormBuilds() - before; got != 3 {
		t.Fatalf("warm lookups built forms: %d", got-3)
	}
	gen := d.B.Gen()
	d.B.Update(func(w []float64) { w[1] = 42 })
	if d.B.Gen() == gen {
		t.Fatal("Update did not advance the generation")
	}
	if got := Vec[float32](d.B)[1]; got != 42 {
		t.Fatalf("rebuilt f32 vector holds %v, want 42", got)
	}
	if PackedTransposed[float64](d.W, 3, 5) != pb {
		t.Fatal("invalidating the bias dropped the weight's forms")
	}
}
