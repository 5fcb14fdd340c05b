package h5lite

import "io"

// WriteV1 serializes the container in the legacy v1 format (no
// checksums). Production writers use Write; the tests write v1 to pin
// that Read still accepts it.
func (f *File) WriteV1(w io.Writer) error {
	return f.writeVersion(w, 1)
}
