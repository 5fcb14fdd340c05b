package campaign

import (
	"deepfusion/internal/featurize"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// Internals the package's external tests read. Those tests run whole
// campaigns on the dispatch runtime, and dispatch imports this
// package, so they live in package campaign_test.

// LoadManifest reads the manifest of the campaign in dir.
func LoadManifest(dir string) (*Manifest, error) { return loadManifest(dir) }

// PrefeatureFor is prefeatureFor.
func (c *Campaign) PrefeatureFor(tgt *target.Pocket) (*featurize.PocketPrefeature, error) {
	return c.prefeatureFor(tgt)
}

// Prefeatures counts the per-target featurization caches c has built.
func (c *Campaign) Prefeatures() int {
	c.preMu.Lock()
	defer c.preMu.Unlock()
	return len(c.prefeatures)
}

// ReadTargetPredictions is readTargetPredictions.
func (c *Campaign) ReadTargetPredictions(units []UnitRecord, tgtName string) ([]screen.Prediction, error) {
	return c.readTargetPredictions(units, tgtName)
}
