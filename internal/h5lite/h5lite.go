// Package h5lite implements a minimal hierarchical binary container in
// the spirit of HDF5: named groups containing named datasets of
// float64 vectors or string vectors. The screening pipeline writes its
// predictions in this format, mirroring the paper's HDF5 output that
// was designed to match ConveyorLC's CDT3Docking layout so existing
// downstream tools could read Fusion scores.
//
// Format versions. v1 ("H5LITE01") is the original tagged record
// stream with no integrity protection. v2 ("H5LITE02"), the default
// since the durability PR, carries the same record stream plus a
// CRC32C (Castagnoli) after every dataset section and a whole-file
// trailer (record-stream byte count + CRC), so truncation, torn
// writes and bit flips are detected on read instead of surfacing as
// obscure decode errors — or worse, silently wrong floats. Read
// auto-detects the version; v1 files stay readable forever (the
// byte-exact v1 layout is pinned by a golden test). Corruption is
// reported as a *CorruptError wrapping ErrCorrupt, naming the file,
// section and byte offset — never returned as a silently wrong value.
package h5lite

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// File is an in-memory hierarchical container.
type File struct {
	root *Group
}

// Group is a node holding datasets and child groups.
type Group struct {
	name     string
	children map[string]*Group
	floats   map[string][]float64
	strings  map[string][]string
}

// New creates an empty container.
func New() *File {
	return &File{root: newGroup("/")}
}

func newGroup(name string) *Group {
	return &Group{
		name:     name,
		children: map[string]*Group{},
		floats:   map[string][]float64{},
		strings:  map[string][]string{},
	}
}

// Root returns the root group.
func (f *File) Root() *Group { return f.root }

// Group returns (creating if needed) the child group with the given
// name.
func (g *Group) Group(name string) *Group {
	if c, ok := g.children[name]; ok {
		return c
	}
	c := newGroup(name)
	g.children[name] = c
	return c
}

// Lookup walks a /-separated path from this group, returning nil when
// any component is missing.
func (g *Group) Lookup(path ...string) *Group {
	cur := g
	for _, p := range path {
		next, ok := cur.children[p]
		if !ok {
			return nil
		}
		cur = next
	}
	return cur
}

// Name returns the group's name.
func (g *Group) Name() string { return g.name }

// Children returns child group names in sorted order.
func (g *Group) Children() []string {
	var out []string
	for k := range g.children {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SetFloats stores a float64 dataset.
func (g *Group) SetFloats(name string, v []float64) {
	g.floats[name] = append([]float64(nil), v...)
}

// Floats returns a float64 dataset and whether it exists.
func (g *Group) Floats(name string) ([]float64, bool) {
	v, ok := g.floats[name]
	return v, ok
}

// SetStrings stores a string dataset.
func (g *Group) SetStrings(name string, v []string) {
	g.strings[name] = append([]string(nil), v...)
}

// Strings returns a string dataset and whether it exists.
func (g *Group) Strings(name string) ([]string, bool) {
	v, ok := g.strings[name]
	return v, ok
}

// FloatNames lists float dataset names in sorted order.
func (g *Group) FloatNames() []string {
	var out []string
	for k := range g.floats {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// StringNames lists string dataset names in sorted order.
func (g *Group) StringNames() []string {
	var out []string
	for k := range g.strings {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

var (
	magicV1 = [8]byte{'H', '5', 'L', 'I', 'T', 'E', '0', '1'}
	magicV2 = [8]byte{'H', '5', 'L', 'I', 'T', 'E', '0', '2'}
)

// Record type tags in the serialized stream.
const (
	tagGroupStart = byte(1)
	tagGroupEnd   = byte(2)
	tagFloats     = byte(3)
	tagStrings    = byte(4)
	// tagTrailer closes a v2 stream: tag, uint64 byte count of
	// everything before the trailer, uint32 CRC32C of those bytes.
	tagTrailer = byte(5)
)

// castagnoli is the CRC32C polynomial table; hardware-accelerated on
// amd64/arm64, which is what keeps verification off the throughput
// critical path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel every integrity failure wraps: bad CRC,
// truncation, implausible lengths, unknown tags, trailing garbage.
// Callers that must distinguish "the file is damaged" from "the file
// is absent or unreadable at the filesystem level" test
// errors.Is(err, h5lite.ErrCorrupt).
var ErrCorrupt = errors.New("h5lite: corrupt")

// CorruptError reports a damaged container: which file (empty for a
// bare stream), which section of the layout, the byte offset where
// the damage was detected, and what was wrong. It wraps ErrCorrupt.
type CorruptError struct {
	Path    string // file path, when known
	Section string // e.g. `dataset "dock/protease1/scores"`, "file trailer"
	Offset  int64  // stream offset where the problem was detected
	Reason  string
}

func (e *CorruptError) Error() string {
	at := ""
	if e.Path != "" {
		at = e.Path + ": "
	}
	return fmt.Sprintf("h5lite: corrupt: %s%s at offset %d: %s", at, e.Section, e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorrupt) true for every CorruptError.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Write serializes the container in the current format (v2): the v1
// record stream plus per-dataset CRC32C sections and a whole-file
// trailer.
func (f *File) Write(w io.Writer) error {
	return f.writeVersion(w, 2)
}

// writeVersion serializes the container into one contiguous buffer
// and flushes it with a single Write. Working in one buffer is what
// keeps the v2 checksums nearly free: every CRC — one per
// dataset section, one for the whole file — is a single bulk
// crc32.Checksum over a contiguous span, hardware-accelerated on
// amd64/arm64, instead of thousands of per-field Update calls.
func (f *File) writeVersion(w io.Writer, version int) error {
	v2 := version == 2
	magic := magicV1
	if v2 {
		magic = magicV2
	}
	buf := append(make([]byte, 0, 1<<16), magic[:]...)
	buf = appendGroup(buf, f.root, v2)
	if v2 {
		// Trailer: everything before it — magic, records, section CRCs
		// — is covered by the whole-file CRC, so any truncation or flip
		// the section CRCs miss (group structure, the CRCs themselves)
		// is still caught.
		payloadLen := uint64(len(buf))
		wholeCRC := crc32.Checksum(buf, castagnoli)
		buf = append(buf, tagTrailer)
		buf = binary.LittleEndian.AppendUint64(buf, payloadLen)
		buf = binary.LittleEndian.AppendUint32(buf, wholeCRC)
	}
	_, err := w.Write(buf)
	return err
}

// appendSectionCRC closes the dataset section that started at off:
// the v2 section CRC covers tag + name + count + payload, end to end.
func appendSectionCRC(buf []byte, off int, v2 bool) []byte {
	if !v2 {
		return buf
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[off:], castagnoli))
}

func appendGroup(buf []byte, g *Group, v2 bool) []byte {
	buf = append(buf, tagGroupStart)
	buf = appendString(buf, g.name)
	for _, name := range g.FloatNames() {
		off := len(buf)
		buf = append(buf, tagFloats)
		buf = appendString(buf, name)
		v := g.floats[name]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(v)))
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		buf = appendSectionCRC(buf, off, v2)
	}
	for _, name := range g.StringNames() {
		off := len(buf)
		buf = append(buf, tagStrings)
		buf = appendString(buf, name)
		v := g.strings[name]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(v)))
		for _, s := range v {
			buf = appendString(buf, s)
		}
		buf = appendSectionCRC(buf, off, v2)
	}
	for _, name := range g.Children() {
		buf = appendGroup(buf, g.children[name], v2)
	}
	return append(buf, tagGroupEnd)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// Read deserializes a container written by Write (v2) or the legacy
// v1 writer, auto-detected from the magic. Any structural damage —
// bad magic, truncation, CRC mismatch, implausible lengths, unknown
// tags, trailing garbage — returns a *CorruptError; the decoder never
// panics and never allocates more memory than the input actually
// provides, on any input (pinned by FuzzRead).
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decode(data, "")
}

// Decode deserializes a container from an in-memory byte slice,
// stamping path into any CorruptError — the campaign layer reads
// shard files through this so integrity reports name the file.
func Decode(path string, data []byte) (*File, error) {
	return decode(data, path)
}

// decoder walks the in-memory stream by offset. On the happy path a
// v2 file is verified with a single bulk crc32.Checksum over the
// whole record stream — which covers every dataset byte and every
// stored section CRC, so no corruption can slip past it — and the
// per-section CRCs are only recomputed after that check fails, to
// localize the damage to a named dataset. One hardware-speed pass
// instead of two is what keeps v2 verification within a few percent
// of the v1 parse; the localization re-walk runs only on
// files that are already known to be corrupt.
type decoder struct {
	data []byte
	pos  int
	path string
	v2   bool
	// verifySections turns on per-dataset CRC comparison during the
	// walk; set only for the localization pass after a whole-file
	// CRC mismatch.
	verifySections bool
}

// corruptf builds the typed corruption report at the current offset.
func (d *decoder) corruptf(section, format string, args ...any) error {
	return &CorruptError{
		Path:    d.path,
		Section: section,
		Offset:  int64(d.pos),
		Reason:  fmt.Sprintf(format, args...),
	}
}

// take consumes exactly n bytes of the stream, translating short
// input into a typed truncation report for the named section. Because
// the bound is checked against the bytes actually present, a forged
// length field can never force an allocation larger than the input.
func (d *decoder) take(n uint64, section string) ([]byte, error) {
	rem := uint64(len(d.data) - d.pos)
	if rem < n {
		d.pos = len(d.data)
		cause := io.ErrUnexpectedEOF
		if rem == 0 {
			cause = io.EOF
		}
		return nil, d.corruptf(section, "truncated: %v", cause)
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

func (d *decoder) readByte(section string) (byte, error) {
	b, err := d.take(1, section)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) readUint32(section string) (uint32, error) {
	b, err := d.take(4, section)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) readUint64(section string) (uint64, error) {
	b, err := d.take(8, section)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *decoder) readString(section string) (string, error) {
	n, err := d.readUint32(section)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", d.corruptf(section, "implausible string length %d", n)
	}
	buf, err := d.take(uint64(n), section)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

func decode(data []byte, path string) (*File, error) {
	d := &decoder{data: data, path: path}
	m, err := d.take(8, "magic")
	if err != nil {
		return nil, err
	}
	switch {
	case bytes.Equal(m, magicV1[:]):
	case bytes.Equal(m, magicV2[:]):
		d.v2 = true
	default:
		return nil, d.corruptf("magic", "bad magic %q", m)
	}
	tag, err := d.readByte("root group")
	if err != nil {
		return nil, err
	}
	if tag != tagGroupStart {
		return nil, d.corruptf("root group", "missing root group (tag %d)", tag)
	}
	root, err := d.readGroup("")
	if err != nil {
		return nil, err
	}
	f := &File{root: root}
	if !d.v2 {
		return f, nil
	}
	// Verify the trailer: the recorded record-stream length and CRC
	// must match what was just read, and nothing may follow. The
	// whole-file CRC covers magic, records and section CRCs alike.
	payloadLen := uint64(d.pos)
	tag, err = d.readByte("file trailer")
	if err != nil {
		return nil, err
	}
	if tag != tagTrailer {
		return nil, d.corruptf("file trailer", "expected trailer tag %d, got %d", tagTrailer, tag)
	}
	wantLen, err := d.readUint64("file trailer")
	if err != nil {
		return nil, err
	}
	wantCRC, err := d.readUint32("file trailer")
	if err != nil {
		return nil, err
	}
	if wantLen != payloadLen {
		return nil, d.corruptf("file trailer", "record stream is %d bytes, trailer records %d", payloadLen, wantLen)
	}
	if wholeCRC := crc32.Checksum(d.data[:payloadLen], castagnoli); wantCRC != wholeCRC {
		// The file is corrupt; re-walk it comparing per-section CRCs
		// so the report names the damaged dataset when one is
		// identifiable, falling back to the whole-file mismatch for
		// damage outside any dataset section.
		if err := localizeCorruption(data, path); err != nil {
			return nil, err
		}
		return nil, d.corruptf("file trailer", "whole-file CRC32C mismatch: computed %08x, stored %08x", wholeCRC, wantCRC)
	}
	if d.pos != len(d.data) {
		return nil, d.corruptf("file trailer", "trailing garbage after trailer")
	}
	return f, nil
}

// localizeCorruption re-walks a stream whose whole-file CRC already
// failed, this time comparing every stored section CRC, and returns
// the first per-dataset mismatch (or structural error) it finds. A
// nil return means no individual section disagrees — the damage is in
// structural bytes, a stored CRC of the trailer, or the trailer
// itself — and the caller reports the whole-file mismatch instead.
func localizeCorruption(data []byte, path string) error {
	d := &decoder{data: data, path: path, v2: true, verifySections: true}
	d.pos = len(magicV2) // the magic matched or we would not be here
	tag, err := d.readByte("root group")
	if err != nil || tag != tagGroupStart {
		return nil
	}
	if _, err := d.readGroup(""); err != nil {
		return err
	}
	return nil
}

// readGroup decodes one group's records. groupPath is the
// /-separated ancestry used to name sections in corruption reports.
func (d *decoder) readGroup(groupPath string) (*Group, error) {
	section := fmt.Sprintf("group %q", groupPath)
	name, err := d.readString(section)
	if err != nil {
		return nil, err
	}
	if groupPath == "" {
		groupPath = name
	} else {
		groupPath = groupPath + "/" + name
	}
	section = fmt.Sprintf("group %q", groupPath)
	g := newGroup(name)
	for {
		tag, err := d.readByte(section)
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagGroupEnd:
			return g, nil
		case tagGroupStart:
			child, err := d.readGroup(groupPath)
			if err != nil {
				return nil, err
			}
			g.children[child.name] = child
		case tagFloats, tagStrings:
			if err := d.readDataset(g, tag, groupPath); err != nil {
				return nil, err
			}
		default:
			return nil, d.corruptf(section, "unknown record tag %d", tag)
		}
	}
}

// readDataset decodes one dataset record (tag already consumed) and,
// for v2, verifies its section CRC — which covers the tag byte, the
// name, the count and the payload.
func (d *decoder) readDataset(g *Group, tag byte, groupPath string) error {
	// The section CRC spans from the tag byte (already consumed)
	// through the end of the payload; remember where it started so it
	// can be verified with one bulk Checksum at the end.
	start := d.pos - 1
	kind := "floats"
	if tag == tagStrings {
		kind = "strings"
	}
	section := fmt.Sprintf("dataset %q (%s)", groupPath, kind)
	dname, err := d.readString(section)
	if err != nil {
		return err
	}
	section = fmt.Sprintf("dataset %q (%s)", groupPath+"/"+dname, kind)
	n, err := d.readUint64(section)
	if err != nil {
		return err
	}
	if n > 1<<32 {
		return d.corruptf(section, "implausible dataset length %d", n)
	}
	switch tag {
	case tagFloats:
		buf, err := d.take(8*n, section)
		if err != nil {
			return err
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		g.floats[dname] = v
	case tagStrings:
		cap := n
		if cap > 4096 {
			cap = 4096
		}
		v := make([]string, 0, cap)
		for i := uint64(0); i < n; i++ {
			s, err := d.readString(section)
			if err != nil {
				return err
			}
			v = append(v, s)
		}
		g.strings[dname] = v
	}
	if d.v2 {
		end := d.pos
		want, err := d.readUint32(section)
		if err != nil {
			return err
		}
		if d.verifySections {
			if got := crc32.Checksum(d.data[start:end], castagnoli); got != want {
				return d.corruptf(section, "section CRC32C mismatch: computed %08x, stored %08x", got, want)
			}
		}
	}
	return nil
}
