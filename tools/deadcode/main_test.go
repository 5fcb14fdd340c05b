package main

import (
	"bytes"
	"testing"
)

// TestFixture runs the gate over testdata/mod, a module with one
// function of each kind: live from main, reached only from a test,
// reached only through a test-only function, reached only from a
// benchmark, reached only from a !amd64 file, called from a method,
// reached from nothing, and allow-listed. An allow-list entry that
// names a live function is reported as stale.
func TestFixture(t *testing.T) {
	allow := map[string]string{
		"fixture/lib.Allowed": "kept on purpose",
		"fixture/lib.Live":    "stale: Live is reached from main",
	}
	var out bytes.Buffer
	status := run([]string{"testdata/mod"}, allow, &out)
	want := `testdata/mod/lib/lib.go:8: lib.TestOnly is reached only from tests
testdata/mod/lib/lib.go:11: lib.viaTestOnly is reached only from tests
testdata/mod/lib/lib.go:17: lib.Unused is unreachable
allow-list entry fixture/lib.Live names no dead function
`
	if status != 1 || out.String() != want {
		t.Fatalf("status %d, report:\n%s\nwant status 1, report:\n%s", status, out.String(), want)
	}
}
