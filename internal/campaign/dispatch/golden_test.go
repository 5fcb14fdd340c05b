package dispatch_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
)

// tinyGoldenFile holds the selections of the tiny campaign as the
// campaign runtime first recorded them: a math.Exp probe line, then
// the SelectionBytes JSON.
const tinyGoldenFile = "testdata/tiny_selections.golden"

// TestReferenceRunMatchesGolden pins ReferenceRun's selections to
// bytes recorded once. Every chaos, disk-chaos, HTTP and multi-process
// test compares its run with ReferenceRun, which runs on the same
// runtime they do; this golden is the check that does not depend on
// that runtime. The file changes only with an intended change of the
// selections.
//
// Fusion scoring (SELU, the SG-CNN gates, the voxel splat) still
// calls math.Exp, whose last bit depends on the platform (amd64
// assembly, with or without FMA, against the portable Go code
// elsewhere); docking no longer does (tensor.Exp). The golden records
// math.Exp over fixed inputs, and the selections are compared only
// where this host's math.Exp matches it. The probe goes when the last
// of those calls moves to tensor.Exp.
func TestReferenceRunMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(tinyGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	probe, want, ok := bytes.Cut(raw, []byte("\n"))
	if !ok {
		t.Fatalf("%s has no probe line", tinyGoldenFile)
	}
	if got := expProbe(); string(probe) != got {
		t.Skipf("math.Exp rounds differently here (%s) than where %s was recorded (%s)", got, tinyGoldenFile, probe)
	}
	_, got := referenceRun(t, tinyConfig())
	if !bytes.Equal(got, want) {
		t.Fatalf("selections differ from %s:\ngot:\n%s\nwant:\n%s", tinyGoldenFile, got, want)
	}
}

// expProbe renders math.Exp over fixed inputs across the range the
// activations feed it, as one "math.Exp n=… sha256=…" line.
func expProbe() string {
	rng := rand.New(rand.NewSource(33))
	h := sha256.New()
	var b [8]byte
	const n = 1000
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(math.Exp(8*rng.NormFloat64())))
		h.Write(b[:])
	}
	return fmt.Sprintf("math.Exp n=%d sha256=%x", n, h.Sum(nil))
}
