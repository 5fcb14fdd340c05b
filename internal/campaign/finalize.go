package campaign

import (
	"fmt"
	"os"
	"path/filepath"

	"deepfusion/internal/assay"
	"deepfusion/internal/chem"
	"deepfusion/internal/h5lite"
	"deepfusion/internal/mmgbsa"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// TargetResult is one target's finalized outcome: the ranked purchase
// list and its two-stage experimental confirmation.
type TargetResult struct {
	Target      string
	Screened    int // compounds with at least one scored pose
	Selections  []SelectionRecord
	PrimaryHits int
	Confirmed   int
}

// Result is the finalized campaign: per-target selections in
// Config.Targets order plus campaign-level hit accounting.
type Result struct {
	PerTarget []TargetResult
	Tested    int
	Hits      int // primary assay at/above the threshold
	Confirmed int // confirmed by the orthogonal secondary assay
}

// HitRate returns primary hits over tested compounds.
func (r *Result) HitRate() float64 {
	if r.Tested == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Tested)
}

// Finalize runs the selection stage over the completed unit shards:
// per target, read the unit shard files back in chunk order, fold
// pose predictions to per-compound scores, attach the AMPL surrogate,
// rank with the cost function, and push the purchase list through the
// two-stage assay confirmation. The selections are persisted into the
// manifest.
//
// Finalize ALWAYS reads from the shard files — never from in-memory
// predictions — so an uninterrupted run and a killed-and-resumed run
// take the identical code path over identical bytes and produce
// byte-identical selections.
func (c *Campaign) Finalize() (*Result, error) {
	c.mu.Lock()
	// Defense in depth: even though the fold path verified each shard
	// before marking its unit done, re-verify here — the last gate
	// before bytes flow into selections. Anything damaged since
	// folding is quarantined and its unit re-queued; finalize then
	// refuses with ErrShardsQuarantined rather than fold.
	probs, changed, err := verifyAndQuarantineDone(c.dir, c.man)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if changed {
		if err := saveManifest(c.dir, c.man); err != nil {
			c.mu.Unlock()
			return nil, err
		}
	}
	if len(probs) > 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("campaign: %d shard(s) failed verification (%s): %w",
			len(probs), probs[0].String(), ErrShardsQuarantined)
	}
	for _, u := range c.man.Units {
		if u.State != UnitDone {
			c.mu.Unlock()
			return nil, fmt.Errorf("campaign: cannot finalize, unit %s is %s", u.ID, u.State)
		}
	}
	cfg := c.man.Config
	units := append([]UnitRecord(nil), c.man.Units...)
	c.mu.Unlock()

	res := &Result{}
	selections := map[string][]SelectionRecord{}
	for _, tgtName := range cfg.Targets {
		preds, err := c.readTargetPredictions(units, tgtName)
		if err != nil {
			return nil, err
		}
		tr, err := c.selectForTarget(cfg, tgtName, preds)
		if err != nil {
			return nil, err
		}
		res.PerTarget = append(res.PerTarget, tr)
		selections[tgtName] = tr.Selections
		res.Tested += len(tr.Selections)
		res.Hits += tr.PrimaryHits
		res.Confirmed += tr.Confirmed
	}

	c.mu.Lock()
	c.man.Selections = selections
	c.man.Finalized = true
	err = saveManifest(c.dir, c.man)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// readTargetPredictions folds one target's unit shards, in chunk
// order and shard-index order, back into a flat prediction list.
func (c *Campaign) readTargetPredictions(units []UnitRecord, tgtName string) ([]screen.Prediction, error) {
	var files []*h5lite.File
	for _, u := range units {
		if u.Target != tgtName {
			continue
		}
		for _, rel := range u.Shards {
			f, err := ReadShardFile(filepath.Join(c.dir, rel))
			if err != nil {
				return nil, fmt.Errorf("campaign: unit %s: %w", u.ID, err)
			}
			files = append(files, f)
		}
	}
	preds, err := screen.ReadShards(files)
	if err != nil {
		return nil, fmt.Errorf("campaign: target %s: %w", tgtName, err)
	}
	return preds, nil
}

// selectForTarget is the per-target tail of the funnel: aggregate,
// AMPL, cost-weighted ranking, two-stage assay.
func (c *Campaign) selectForTarget(cfg Config, tgtName string, preds []screen.Prediction) (TargetResult, error) {
	tgt := target.ByName(tgtName)
	scores := screen.AggregateByCompound(preds)

	ampl := mmgbsa.NewAMPL(tgt)
	fitSet := c.deck
	if len(fitSet) > cfg.AMPLFitMax {
		fitSet = fitSet[:cfg.AMPLFitMax]
	}
	if err := ampl.Fit(fitSet); err == nil {
		screen.AttachAMPL(scores, ampl, c.byID)
	}

	selected := screen.SelectForExperiment(scores, cfg.Weights, cfg.TopN)
	tr := TargetResult{Target: tgtName, Screened: len(scores)}

	mols := make([]*chem.Mol, 0, len(selected))
	for _, cs := range selected {
		mols = append(mols, c.byID[cs.CompoundID])
	}
	conf := assay.Screen(tgt, mols, cfg.AssayThreshold)
	primary := map[int]bool{}
	confirmed := map[int]bool{}
	for _, i := range conf.PrimaryHits {
		primary[i] = true
	}
	for _, i := range conf.Confirmed {
		confirmed[i] = true
	}
	primaryAssay := assay.ForTarget(tgt)
	for i, cs := range selected {
		rec := SelectionRecord{
			CompoundID: cs.CompoundID,
			Fusion:     cs.Fusion,
			Vina:       cs.Vina,
			MMGBSA:     cs.MMGBSA,
			AMPL:       cs.AMPL,
			Combined:   cfg.Weights.Combined(cs),
			NumPoses:   cs.NumPoses,
			Inhibition: primaryAssay.Inhibition(mols[i]),
			PrimaryHit: primary[i],
			Confirmed:  confirmed[i],
		}
		tr.Selections = append(tr.Selections, rec)
		if rec.PrimaryHit {
			tr.PrimaryHits++
		}
		if rec.Confirmed {
			tr.Confirmed++
		}
	}
	return tr, nil
}

// ReadShardFile loads and verifies one prediction shard written by
// WriteShardFile. The whole file is read through the disk-fault layer
// and decoded with its path stamped into any corruption report, so a
// damaged shard surfaces as a *h5lite.CorruptError naming the file —
// which the self-healing sync loop and fsck key on — never as
// silently wrong floats.
func ReadShardFile(path string) (*h5lite.File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return h5lite.Decode(path, faultReadPayload(path, data))
}
