package dock

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"deepfusion/internal/libgen"
	"deepfusion/internal/target"
)

// dockGoldenFile holds the float64 bits of prepared and docked
// compounds as the docking search first produced them: a header line
// (a math.Exp probe from when the bits depended on the host, now
// ignored), then one line per prepared compound and one per (compound,
// pocket, move set) docking run.
const dockGoldenFile = "testdata/dock_bits.golden"

// goldenIDs are fixed compounds from all four libraries, so both the
// SDF (zinc, chembl) and the SMILES (emolecules, enamine) import routes
// feed preparation.
var goldenIDs = []string{
	"zinc-world-approved:0", "zinc-world-approved:7", "zinc-world-approved:431",
	"chembl:3", "chembl:8", "chembl:14",
	"emolecules:1", "emolecules:77", "emolecules:150",
	"enamine:2", "enamine:40", "enamine:3210",
}

// TestDockBitsMatchGolden pins preparation (libgen.MolByID) and
// docking (Dock at the service's settings, rigid and with torsion
// moves, on every pocket) to bits recorded once. A change that only
// makes either faster must leave this file alone.
//
// Every exp on the path is tensor.Exp, whose bits do not depend on the
// host, so the comparison runs everywhere — under GOARCH=386 too
// (make test-portable).
func TestDockBitsMatchGolden(t *testing.T) {
	raw, err := os.ReadFile(dockGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	_, want, ok := bytes.Cut(raw, []byte("\n"))
	if !ok {
		t.Fatalf("%s has no header line", dockGoldenFile)
	}
	gotLines := strings.Split(dockBits(t), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\ngot:  %s\nwant: %s", dockGoldenFile, i+2, g, w)
		}
	}
}

// dockBits renders every golden compound's prepared coordinates and
// docked poses as lines of float64 bits (scores in hex, coordinates
// hashed).
func dockBits(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, id := range goldenIDs {
		m, err := libgen.MolByID(id)
		if err != nil {
			fmt.Fprintf(&b, "%s error=%q\n", id, err.Error())
			continue
		}
		h := sha256.New()
		for _, a := range m.Atoms {
			putVec(h, a.Pos.X, a.Pos.Y, a.Pos.Z)
		}
		fmt.Fprintf(&b, "%s prepared atoms=%d coords=%x\n", id, len(m.Atoms), h.Sum(nil))
		for _, p := range target.All() {
			for _, torsion := range []bool{false, true} {
				o := SearchOptions{NumPoses: 3, MCSteps: 30, Restarts: 4, Temperature: 1.2, Seed: 41, TorsionMoves: torsion}
				poses := Dock(p, m, o)
				h := sha256.New()
				fmt.Fprintf(&b, "%s %s torsion=%t poses=%d", id, p.Name, torsion, len(poses))
				for _, ps := range poses {
					fmt.Fprintf(&b, " %d:%016x", ps.Rank, math.Float64bits(ps.Score))
					for _, a := range ps.Mol.Atoms {
						putVec(h, a.Pos.X, a.Pos.Y, a.Pos.Z)
					}
				}
				fmt.Fprintf(&b, " coords=%x\n", h.Sum(nil))
			}
		}
	}
	return b.String()
}

func putVec(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}
