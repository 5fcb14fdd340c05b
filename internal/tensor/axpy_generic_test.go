//go:build !amd64

package tensor

import "testing"

// expMatchesMath is false: math.Exp here is the portable Go code, not
// the FMA sequence Exp defines.
const expMatchesMath = false

// forEachKernelPath runs f on the one kernel path portable builds have
// at both widths: the Go loops.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	t.Run("go", f)
}
