//go:build !amd64

package tensor

import "testing"

// forEachKernelPath runs f on the one float32 kernel path portable
// builds have: the Go rows.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	t.Run("go", f)
}
