package dispatch_test

import (
	"testing"

	"deepfusion/internal/campaign"
	"deepfusion/internal/campaign/dispatchtest"
	"deepfusion/internal/screen"
)

// The tiny deterministic fixtures live in the shared dispatchtest kit
// (one copy for the dispatch, dispatchhttp and conformance suites);
// these wrappers keep this package's historical test names.

func tinyScorers() []screen.Scorer { return dispatchtest.TinyScorers() }

func tinyConfig() campaign.Config { return dispatchtest.TinyConfig() }

func selectionBytes(t *testing.T, dir string) []byte {
	t.Helper()
	return dispatchtest.SelectionBytes(t, dir)
}

func referenceRun(t *testing.T, cfg campaign.Config) (string, []byte) {
	t.Helper()
	return dispatchtest.ReferenceRun(t, cfg)
}
