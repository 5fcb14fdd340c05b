package h5lite

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"
)

// goldenFile builds the fixture whose serialized bytes are pinned
// below: nested groups, special floats (NaN, ±Inf, -0), an empty
// dataset, an empty group, unicode-free SMILES strings and an empty
// string element.
func goldenFile() *File {
	f := New()
	dock := f.Root().Group("dock")
	t1 := dock.Group("protease1")
	t1.SetFloats("scores", []float64{-7.25, -6.5, math.NaN(), math.Inf(1), math.Inf(-1), 0})
	t1.SetStrings("ligands", []string{"CC(=O)N", "c1ccccc1", ""})
	t1.SetFloats("empty", nil)
	dock.Group("protease2")
	meta := f.Root().Group("meta")
	meta.SetStrings("note", []string{"golden"})
	return f
}

// goldenV1Hex pins the legacy v1 layout byte-for-byte. Shards written
// before the durability PR are exactly this shape; if this constant
// ever fails to decode, read-compat is broken.
const goldenV1Hex = "48354c495445303101010000002f0104000000646f636b010900000070726f7465617365310305000000656d7074790000000000000000030600000073636f72657306000000000000000000000000001dc00000000000001ac0010000000000f87f000000000000f07f000000000000f0ff000000000000000004070000006c6967616e64730300000000000000070000004343283d4f294e0800000063316363636363310000000002010900000070726f746561736532020201040000006d65746104040000006e6f7465010000000000000006000000676f6c64656e0202"

// goldenV2Hex pins the v2 layout: same record stream plus per-dataset
// CRC32C sections and the whole-file trailer.
const goldenV2Hex = "48354c495445303201010000002f0104000000646f636b010900000070726f7465617365310305000000656d707479000000000000000006241132030600000073636f72657306000000000000000000000000001dc00000000000001ac0010000000000f87f000000000000f07f000000000000f0ff0000000000000000f42c122f04070000006c6967616e64730300000000000000070000004343283d4f294e0800000063316363636363310000000065892fed02010900000070726f746561736532020201040000006d65746104040000006e6f7465010000000000000006000000676f6c64656e0e50f7ab020205f000000000000000d6e07797"

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad golden hex: %v", err)
	}
	return b
}

// filesEqual compares two containers structurally, comparing floats
// by bit pattern so NaN payloads round-trip exactly.
func filesEqual(a, b *File) bool {
	return groupsEqual(a.root, b.root)
}

func groupsEqual(a, b *Group) bool {
	if a.name != b.name {
		return false
	}
	if len(a.children) != len(b.children) || len(a.floats) != len(b.floats) || len(a.strings) != len(b.strings) {
		return false
	}
	for name, av := range a.floats {
		bv, ok := b.floats[name]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return false
			}
		}
	}
	for name, av := range a.strings {
		bv, ok := b.strings[name]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	for name, ac := range a.children {
		bc, ok := b.children[name]
		if !ok || !groupsEqual(ac, bc) {
			return false
		}
	}
	return true
}

func TestGoldenV1BytesStable(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenFile().WriteV1(&buf); err != nil {
		t.Fatalf("WriteV1: %v", err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenV1Hex {
		t.Fatalf("v1 writer output drifted from golden bytes:\n got %s\nwant %s", got, goldenV1Hex)
	}
}

func TestGoldenV2BytesStable(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenFile().Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenV2Hex {
		t.Fatalf("v2 writer output drifted from golden bytes:\n got %s\nwant %s", got, goldenV2Hex)
	}
}

// TestReadCompatV1Golden is the read-compat pin: the checked-in v1
// byte stream (written before checksums existed) must keep decoding
// to exactly the golden content.
func TestReadCompatV1Golden(t *testing.T) {
	f, err := Read(bytes.NewReader(mustHex(t, goldenV1Hex)))
	if err != nil {
		t.Fatalf("reading pinned v1 bytes: %v", err)
	}
	if !filesEqual(f, goldenFile()) {
		t.Fatal("pinned v1 bytes decoded to different content")
	}
}

func TestReadV2Golden(t *testing.T) {
	f, err := Read(bytes.NewReader(mustHex(t, goldenV2Hex)))
	if err != nil {
		t.Fatalf("reading pinned v2 bytes: %v", err)
	}
	if !filesEqual(f, goldenFile()) {
		t.Fatal("pinned v2 bytes decoded to different content")
	}
}

// TestBitFlipSweepV2 flips every bit of every byte of a valid v2
// stream and requires the decoder to reject each mutant: no single
// bit flip anywhere in the file may ever decode silently.
func TestBitFlipSweepV2(t *testing.T) {
	orig := mustHex(t, goldenV2Hex)
	for i := range orig {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), orig...)
			mut[i] ^= 1 << bit
			f, err := Read(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("bit %d of byte %d flipped: decoded without error", bit, i)
			}
			if f != nil {
				t.Fatalf("bit %d of byte %d flipped: non-nil file returned with error", bit, i)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bit %d of byte %d flipped: error does not wrap ErrCorrupt: %v", bit, i, err)
			}
		}
	}
}

// TestTruncationSweepV2 checks every proper prefix of a v2 stream is
// rejected — a torn write can stop at any byte.
func TestTruncationSweepV2(t *testing.T) {
	orig := mustHex(t, goldenV2Hex)
	for n := 0; n < len(orig); n++ {
		if _, err := Read(bytes.NewReader(orig[:n])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d/%d bytes: want ErrCorrupt, got %v", n, len(orig), err)
		}
	}
}

func TestTrailingGarbageV2Rejected(t *testing.T) {
	data := append(mustHex(t, goldenV2Hex), 0x00)
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: want ErrCorrupt, got %v", err)
	}
}

// TestCorruptErrorNamesFileSectionOffset checks the typed report
// carries enough to point a human at the damage.
func TestCorruptErrorNamesFileSectionOffset(t *testing.T) {
	orig := mustHex(t, goldenV2Hex)
	// Flip a byte inside the "scores" float payload (the NaN word sits
	// well inside the first dataset's payload region).
	mut := append([]byte(nil), orig...)
	idx := bytes.Index(mut, []byte("scores"))
	if idx < 0 {
		t.Fatal("golden bytes lost the scores dataset")
	}
	mut[idx+20] ^= 0x40
	_, err := Decode("/campaign/shards/protease1_c000_s00.h5l", mut)
	if err == nil {
		t.Fatal("corrupted payload decoded without error")
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %T: %v", err, err)
	}
	if ce.Path != "/campaign/shards/protease1_c000_s00.h5l" {
		t.Fatalf("CorruptError.Path = %q", ce.Path)
	}
	if !strings.Contains(ce.Section, "scores") {
		t.Fatalf("CorruptError.Section = %q, want it to name the damaged dataset", ce.Section)
	}
	if ce.Offset <= 0 {
		t.Fatalf("CorruptError.Offset = %d, want positive", ce.Offset)
	}
	if !strings.Contains(err.Error(), "protease1_c000_s00.h5l") {
		t.Fatalf("error text %q does not name the file", err)
	}
}

// TestSpecialFloatsRoundTripBothVersions pins NaN, ±Inf and signed
// zero through both format versions, comparing bit patterns.
func TestSpecialFloatsRoundTripBothVersions(t *testing.T) {
	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0,
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64,
	}
	f := New()
	f.Root().Group("t").SetFloats("v", special)
	for _, tc := range []struct {
		name  string
		write func(*File, *bytes.Buffer) error
	}{
		{"v1", func(f *File, b *bytes.Buffer) error { return f.WriteV1(b) }},
		{"v2", func(f *File, b *bytes.Buffer) error { return f.Write(b) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(f, &buf); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			v, ok := got.Root().Lookup("t").Floats("v")
			if !ok || len(v) != len(special) {
				t.Fatalf("dataset lost: ok=%v len=%d", ok, len(v))
			}
			for i := range special {
				if math.Float64bits(v[i]) != math.Float64bits(special[i]) {
					t.Fatalf("element %d: bits %016x != %016x", i, math.Float64bits(v[i]), math.Float64bits(special[i]))
				}
			}
		})
	}
}

// TestEmptyShapesRoundTripBothVersions covers empty datasets, empty
// groups and a fully empty file at both format versions.
func TestEmptyShapesRoundTripBothVersions(t *testing.T) {
	build := func() *File {
		f := New()
		g := f.Root().Group("empty-group")
		g.SetFloats("no-floats", nil)
		g.SetStrings("no-strings", []string{})
		f.Root().Group("bare")
		return f
	}
	for _, tc := range []struct {
		name  string
		write func(*File, *bytes.Buffer) error
	}{
		{"v1", func(f *File, b *bytes.Buffer) error { return f.WriteV1(b) }},
		{"v2", func(f *File, b *bytes.Buffer) error { return f.Write(b) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(build(), &buf); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if !filesEqual(got, build()) {
				t.Fatal("empty shapes did not round-trip")
			}
			if v, ok := got.Root().Lookup("empty-group").Floats("no-floats"); !ok || len(v) != 0 {
				t.Fatalf("empty float dataset: ok=%v len=%d", ok, len(v))
			}
			if v, ok := got.Root().Lookup("empty-group").Strings("no-strings"); !ok || len(v) != 0 {
				t.Fatalf("empty string dataset: ok=%v len=%d", ok, len(v))
			}
			if got.Root().Lookup("bare") == nil {
				t.Fatal("empty group lost")
			}

			var empty bytes.Buffer
			if err := tc.write(New(), &empty); err != nil {
				t.Fatalf("write empty file: %v", err)
			}
			if _, err := Read(&empty); err != nil {
				t.Fatalf("read empty file: %v", err)
			}
		})
	}
}

// TestForgedLengthBoundedAllocation feeds a header that claims a
// multi-gigabyte dataset backed by a few bytes: the decoder must
// error on truncation without attempting the huge allocation.
func TestForgedLengthBoundedAllocation(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magicV1[:])
	buf.WriteByte(tagGroupStart)
	buf.Write([]byte{1, 0, 0, 0, '/'}) // root name "/"
	buf.WriteByte(tagFloats)
	buf.Write([]byte{1, 0, 0, 0, 'x'})                       // dataset name "x"
	buf.Write([]byte{0, 0, 0, 0, 1, 0, 0, 0})                // claim 2^32 floats = 32 GiB
	buf.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0}) // a few real bytes
	if _, err := Read(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged length: want ErrCorrupt, got %v", err)
	}
	// Beyond 2^32 the count itself is rejected as implausible.
	data := buf.Bytes()
	copy(data[len(data)-17:], []byte{0, 0, 0, 0, 0, 1, 0, 0}) // 2^40 floats
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("implausible length: want ErrCorrupt, got %v", err)
	}
}

func TestDecodeStampsPath(t *testing.T) {
	const path = "shards/bad.h5l"
	_, err := Decode(path, []byte("H5LITE02 but then junk"))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	if ce.Path != path {
		t.Fatalf("Path = %q, want %q", ce.Path, path)
	}
}
