package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Checkpoint I/O: parameters are written in order as
// (rank, dims..., values...) little-endian records preceded by a magic
// header, the role filled by torch.save in the original pipeline.

var ckptMagic = [8]byte{'D', 'F', 'C', 'K', 'P', 'T', '0', '1'}

// SaveParams writes the given parameters to w.
func SaveParams(w io.Writer, params []*Param) error {
	if _, err := w.Write(ckptMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(p.Value.Shape))); err != nil {
			return err
		}
		for _, d := range p.Value.Shape {
			if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		buf := make([]byte, 8*len(p.Value.Data))
		for i, v := range p.Value.Data {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// LoadParams reads a checkpoint produced by SaveParams into params,
// which must match in count and shape.
func LoadParams(r io.Reader, params []*Param) error {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return err
	}
	if magic != ckptMagic {
		return errors.New("nn: bad checkpoint magic")
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if int(n) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", n, len(params))
	}
	for _, p := range params {
		var rank uint32
		if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
			return err
		}
		if int(rank) != len(p.Value.Shape) {
			return fmt.Errorf("nn: param %q rank mismatch: checkpoint %d, model %d", p.Name, rank, len(p.Value.Shape))
		}
		for i := range p.Value.Shape {
			var d uint32
			if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
				return err
			}
			if int(d) != p.Value.Shape[i] {
				return fmt.Errorf("nn: param %q dim %d mismatch: checkpoint %d, model %d", p.Name, i, d, p.Value.Shape[i])
			}
		}
		buf := make([]byte, 8*len(p.Value.Data))
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		p.Update(func(w []float64) {
			for i := range w {
				w[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
			}
		})
	}
	return nil
}

// CopyParams copies values from src into dst; shapes must match. Used
// when Coherent Fusion loads pre-trained 3D-CNN and SG-CNN heads.
func CopyParams(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: CopyParams count mismatch %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		if !dst[i].Value.SameShape(src[i].Value) {
			return fmt.Errorf("nn: CopyParams shape mismatch at %d (%v vs %v)", i, dst[i].Value.Shape, src[i].Value.Shape)
		}
		dst[i].Update(func(w []float64) { copy(w, src[i].Value.Data) })
	}
	return nil
}
