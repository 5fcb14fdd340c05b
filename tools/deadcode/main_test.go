package main

import (
	"bytes"
	"testing"
)

// TestFixture runs the gate over testdata/mod, a module with one
// function and one method of each kind: live from main, reached only
// from a test, reached only through a test-only function or method,
// reached only from a benchmark, declared or reached only in a !amd64
// file, called from a live method, reached from nothing, allow-listed,
// on an allow-listed test-support type, and lent to an interface of the
// module or of the standard library (String via fmt). An allow-list
// entry that names a live function is reported as stale.
func TestFixture(t *testing.T) {
	allow := map[string]string{
		"fixture/lib.Allowed": "kept on purpose",
		"fixture/lib.Fake":    "test support",
		"fixture/lib.Live":    "stale: Live is reached from main",
	}
	var out bytes.Buffer
	status := run([]string{"testdata/mod"}, allow, &out)
	want := `testdata/mod/lib/kernel_other.go:8: lib.T.portableUnused is unreachable
testdata/mod/lib/lib.go:9: lib.TestOnly is reached only from tests
testdata/mod/lib/lib.go:12: lib.viaTestOnly is reached only from tests
testdata/mod/lib/lib.go:18: lib.Unused is unreachable
testdata/mod/lib/lib.go:32: lib.(*T).TestMethod is reached only from tests
testdata/mod/lib/lib.go:34: lib.viaTestMethod is reached only from tests
testdata/mod/lib/lib.go:40: lib.T.unusedMethod is unreachable
allow-list entry fixture/lib.Live names no dead function
`
	if status != 1 || out.String() != want {
		t.Fatalf("status %d, report:\n%s\nwant status 1, report:\n%s", status, out.String(), want)
	}
}
