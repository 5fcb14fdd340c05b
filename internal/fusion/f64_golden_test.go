package fusion

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"deepfusion/internal/tensor"
)

// f64GoldenFile holds the float64 bit patterns TestF64BitsGolden pins,
// one "name value" line per case, sorted by name.
const f64GoldenFile = "testdata/f64_bits.golden"

// TestF64BitsGolden pins the exact float64 bits of the reference
// inference path — model scores for every family and the kernels
// beneath them, the cases of TestF32BitsGolden plus the accumulating
// zero-skip GEMM — against values the pure-Go float64 leaves recorded.
// The f64 screen goldens compare the engine with a path that runs the
// same leaves, so a leaf change moves both sides of them; a vector leaf
// passes this test only if it is bit-identical to the Go loops. A
// mismatch prints the line the golden file would need; the file changes
// only with an intended change of f64 results.
//
// The model scores and the graph convolution also pass through
// math.Exp, whose last bit depends on the platform (amd64 assembly,
// with or without FMA, against the portable Go code elsewhere). The
// golden records math.Exp over fixed inputs; where this host's math.Exp
// rounds differently, only the cases the leaves alone decide — the box
// convolution and the packed GEMMs — are compared, so GOARCH=386 still
// checks the Go leaves against the recorded bits.
func TestF64BitsGolden(t *testing.T) {
	got := map[string]string{expProbe: expBits()}
	goldenScoresAt(PrecisionF64, got)
	goldenKernelsAt[float64](got)
	goldenAccPacked(got)
	want := readBitsGolden(t, f64GoldenFile)
	if got[expProbe] != want[expProbe] {
		t.Logf("math.Exp rounds differently here than where %s was recorded: comparing only the leaf cases", f64GoldenFile)
		for name := range got {
			if strings.HasPrefix(name, "PredictBatchInto/") || strings.HasPrefix(name, "GGConv.") || name == expProbe {
				delete(got, name)
				delete(want, name)
			}
		}
	}
	compareBitsGolden(t, f64GoldenFile, want, got)
}

// expProbe names the golden's record of math.Exp.
const expProbe = "math.Exp"

// expBits renders math.Exp over fixed inputs across the range the
// activations feed it.
func expBits() string {
	rng := rand.New(rand.NewSource(33))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = math.Exp(8 * rng.NormFloat64())
	}
	return bitsOf(xs)
}

// goldenAccPacked runs the (accumulate, zero-skip) packed GEMM on a
// non-zero C with sparse A, over a full, a half-panel and a ragged
// tail.
func goldenAccPacked(got map[string]string) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{16, 12, 11} {
		a, b, c := tensor.New(5, 37), tensor.New(37, n), tensor.New(5, n)
		randFill(rng, a, 0.5)
		randFill(rng, b, 0)
		randFill(rng, c, 0)
		var pb tensor.PackedB
		pb.Pack(b)
		tensor.MatMulAccPacked(c, a, &pb)
		got[fmt.Sprintf("MatMulAccPacked/n=%d", n)] = bitsOf(c.Data)
	}
}

// readBitsGolden reads a bits golden's "name value" lines.
func readBitsGolden(t *testing.T, file string) map[string]string {
	t.Helper()
	want := map[string]string{}
	f, err := os.Open(file)
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
	return want
}

// compareBitsGolden reports every case of got that differs from want,
// as the line the golden file would need.
func compareBitsGolden(t *testing.T, file string, want, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("bits differ from %s:\n%s %s", file, name, got[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d cases, the test computes %d", file, len(want), len(got))
	}
}
