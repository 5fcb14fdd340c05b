package chem

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestSDFRoundTrip(t *testing.T) {
	cases := []string{
		"CCO",
		"c1ccccc1",
		"CC(=O)Oc1ccccc1C(=O)O",
		"[NH3+]CC(=O)[O-]",
		"C#N",
	}
	for _, s := range cases {
		orig := mustParse(t, s)
		orig.Name = s
		Embed3D(orig, 11)
		var buf bytes.Buffer
		if err := WriteSDF(&buf, orig); err != nil {
			t.Fatal(err)
		}
		back, err := ParseSDF(&buf)
		if err != nil {
			t.Fatalf("%s: %v\n%s", s, err, buf.String())
		}
		if len(back) != 1 {
			t.Fatalf("%s: got %d molecules", s, len(back))
		}
		m := back[0]
		if m.Name != s {
			t.Fatalf("name %q != %q", m.Name, s)
		}
		if len(m.Atoms) != len(orig.Atoms) || len(m.Bonds) != len(orig.Bonds) {
			t.Fatalf("%s: atoms %d->%d bonds %d->%d", s,
				len(orig.Atoms), len(m.Atoms), len(orig.Bonds), len(m.Bonds))
		}
		if math.Abs(m.Weight()-orig.Weight()) > 1e-6 {
			t.Fatalf("%s: MW %v -> %v", s, orig.Weight(), m.Weight())
		}
		if m.NetCharge() != orig.NetCharge() {
			t.Fatalf("%s: charge %d -> %d", s, orig.NetCharge(), m.NetCharge())
		}
		// Coordinates survive to 4 decimals.
		for i := range m.Atoms {
			if m.Atoms[i].Pos.Dist(orig.Atoms[i].Pos) > 1e-3 {
				t.Fatalf("%s: atom %d moved", s, i)
			}
		}
	}
}

func TestSDFMultiMolecule(t *testing.T) {
	a := mustParse(t, "CCO")
	a.Name = "ethanol"
	b := mustParse(t, "c1ccccc1")
	b.Name = "benzene"
	var buf bytes.Buffer
	if err := WriteSDF(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	mols, err := ParseSDF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(mols) != 2 || mols[0].Name != "ethanol" || mols[1].Name != "benzene" {
		t.Fatalf("multi-mol SDF wrong: %v", mols)
	}
}

func TestSDFAromaticBondsSurvive(t *testing.T) {
	m := mustParse(t, "c1ccccc1")
	var buf bytes.Buffer
	if err := WriteSDF(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSDF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range back[0].Bonds {
		if !b.Aromatic {
			t.Fatal("aromatic bond lost in SDF round trip")
		}
	}
	for _, a := range back[0].Atoms {
		if a.NumH != 1 {
			t.Fatalf("benzene H count %d after round trip", a.NumH)
		}
	}
}

func TestParseSDFErrors(t *testing.T) {
	bad := []string{
		"name\nprog\ncomment\n",                                          // missing counts
		"name\nprog\ncomment\n abc  0\nM  END\n$$$$\n",                   // bad counts
		"name\nprog\ncomment\n  1  0  0  0  0  0  0  0  0  0999 V2000\n", // truncated atoms
	}
	for i, s := range bad {
		if _, err := ParseSDF(strings.NewReader(s)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestParseSDFEmpty(t *testing.T) {
	mols, err := ParseSDF(strings.NewReader(""))
	if err != nil || len(mols) != 0 {
		t.Fatalf("empty SDF: %v %v", mols, err)
	}
}

// TestParseSDFSmallRecordAllocs pins that parsing a record of a few
// hundred bytes allocates in proportion to the record, not to the
// 1 MiB line limit.
func TestParseSDFSmallRecordAllocs(t *testing.T) {
	m := mustParse(t, "CC(=O)Oc1ccccc1C(=O)O")
	m.Name = "aspirin"
	Embed3D(m, 3)
	var buf bytes.Buffer
	if err := WriteSDF(&buf, m); err != nil {
		t.Fatal(err)
	}
	rec := buf.String()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ParseSDF(strings.NewReader(rec)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("parsing a %d-byte SDF record allocates %d bytes", len(rec), per)
	}
}

// TestParseSDFLineLimit pins ParseSDF's line limit: a title line past
// bufio's 64 KiB default reads, a line that fills the 1 MiB buffer
// fails with bufio.ErrTooLong instead of reading as end of file.
func TestParseSDFLineLimit(t *testing.T) {
	record := func(titleLen int) string {
		m := mustParse(t, "CCO")
		m.Name = strings.Repeat("x", titleLen)
		var buf bytes.Buffer
		if err := WriteSDF(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, n := range []int{100 << 10, 1<<20 - 1} {
		mols, err := ParseSDF(strings.NewReader(record(n)))
		if err != nil {
			t.Fatalf("title of %d bytes: %v", n, err)
		}
		if len(mols) != 1 || len(mols[0].Name) != n || len(mols[0].Atoms) != 3 {
			t.Fatalf("title of %d bytes: got %d molecules", n, len(mols))
		}
	}
	for _, rec := range []string{record(1 << 20), record(0) + record(2<<20)} {
		mols, err := ParseSDF(strings.NewReader(rec))
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("line over the limit: got %d molecules, error %v; want bufio.ErrTooLong", len(mols), err)
		}
	}
}

func TestWritePDBQT(t *testing.T) {
	m := mustParse(t, "c1ccccc1CC(=O)O")
	m.Name = "test-ligand"
	Embed3D(m, 5)
	var buf bytes.Buffer
	if err := WritePDBQT(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "REMARK  Name = test-ligand") {
		t.Fatal("missing name remark")
	}
	if !strings.Contains(out, "ROOT") || !strings.Contains(out, "ENDROOT") {
		t.Fatal("missing ROOT markers")
	}
	if got := strings.Count(out, "HETATM"); got != len(m.Atoms) {
		t.Fatalf("HETATM lines %d, atoms %d", got, len(m.Atoms))
	}
	// Aromatic carbons use AutoDock type A.
	if !strings.Contains(out, " A \n") && !strings.Contains(out, " A\n") {
		t.Fatal("no aromatic-carbon AutoDock type in output")
	}
}
