// Shard integrity verification, quarantine and the bounded repair
// budget — the self-healing half of the durability layer.
//
// Every shard is a checksummed h5lite v2 file, so damage is
// detectable on read; this file decides what happens next. The rule:
// a corrupt or missing shard NEVER folds into selections and is NEVER
// deleted. It is moved into quarantine/ (preserved for post-mortem),
// the owning unit is re-queued at a fresh epoch, and the manifest's
// corruption/repair counters advance. Each unit carries a lifetime
// repair budget (Config.MaxRepairs); a unit that keeps producing
// corrupt shards past its budget parks as failed, which blocks
// finalize — loudly, not silently. Verification runs at the two
// fold points: syncDispatch (before a result ack retires a unit) and
// Finalize (before shards flow into selections), plus offline via
// Fsck.
package campaign

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// ErrShardsQuarantined reports that finalize found corrupt or missing
// shards, quarantined them and re-queued the owning units: the
// campaign must run those units again before it can finalize.
var ErrShardsQuarantined = errors.New("campaign: corrupt shards quarantined; units re-queued")

const quarantineDirName = "quarantine"

// QuarantineDir returns the quarantine directory inside a campaign
// directory, where corrupt shard files are preserved for post-mortem.
func QuarantineDir(dir string) string { return filepath.Join(dir, quarantineDirName) }

// ShardProblem describes one damaged or missing shard discovered
// during verification.
type ShardProblem struct {
	Unit  string `json:"unit"`
	Shard string `json:"shard"` // path relative to the campaign dir
	Err   error  `json:"-"`
	// Missing distinguishes an absent file from a present-but-corrupt
	// one (which gets quarantined).
	Missing bool `json:"missing"`
}

func (p ShardProblem) String() string {
	if p.Missing {
		return fmt.Sprintf("unit %s: shard %s missing", p.Unit, p.Shard)
	}
	return fmt.Sprintf("unit %s: shard %s corrupt: %v", p.Unit, p.Shard, p.Err)
}

// verifyShards decodes every listed shard (full CRC verification via
// ReadShardFile) and returns the problems found. An empty shard list
// on a unit that docked poses is the caller's concern; here an empty
// list verifies vacuously.
func verifyShards(dir, unitID string, shards []string) []ShardProblem {
	var probs []ShardProblem
	for _, rel := range shards {
		if _, err := ReadShardFile(filepath.Join(dir, rel)); err != nil {
			probs = append(probs, ShardProblem{
				Unit:    unitID,
				Shard:   rel,
				Err:     err,
				Missing: errors.Is(err, fs.ErrNotExist),
			})
		}
	}
	return probs
}

// quarantineShard moves one shard file (path relative to dir) into
// quarantine/, never deleting it. Collisions get a numeric suffix. A
// missing source is a no-op (nothing to preserve). Returns the
// quarantined path, or "" when nothing moved.
func quarantineShard(dir, rel string) (string, error) {
	src := filepath.Join(dir, rel)
	if _, err := os.Stat(src); errors.Is(err, fs.ErrNotExist) {
		return "", nil
	}
	qdir := QuarantineDir(dir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Base(rel)
	dst := filepath.Join(qdir, base)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); errors.Is(err, fs.ErrNotExist) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", base, i))
	}
	if err := os.Rename(src, dst); err != nil {
		return "", err
	}
	// Make both directory entries durable: the shard must not
	// resurrect into shards/ after a crash and re-poison the campaign.
	if err := syncDir(qdir); err != nil {
		return "", err
	}
	if err := syncDir(filepath.Dir(src)); err != nil {
		return "", err
	}
	return dst, nil
}

// maxRepairs is the per-unit lifetime corruption-re-queue budget.
// Manifests from before the durability layer record 0 and get the
// default.
func (m *Manifest) maxRepairs() int {
	if m.Config.MaxRepairs > 0 {
		return m.Config.MaxRepairs
	}
	return 3
}

// quarantineAndRequeue applies the repair state machine to one unit
// whose shards failed verification: preserve the damaged files in
// quarantine/, advance the corruption counters, and either re-queue
// the unit at nextEpoch (budget remaining) or park it failed (budget
// exhausted). Returns whether the unit was re-queued. The caller
// holds the manifest and persists it.
func quarantineAndRequeue(dir string, man *Manifest, u *UnitRecord, probs []ShardProblem, nextEpoch int) (requeued bool, err error) {
	for _, p := range probs {
		if _, qerr := quarantineShard(dir, p.Shard); qerr != nil {
			return false, fmt.Errorf("campaign: quarantine %s: %w", p.Shard, qerr)
		}
	}
	man.Corruptions += len(probs)
	u.Poses = 0
	u.Skipped = 0
	u.Shards = nil
	u.Worker = ""
	if u.Repairs >= man.maxRepairs() {
		u.State = UnitFailed
		return false, nil
	}
	u.Repairs++
	man.Repairs++
	u.Epoch = nextEpoch
	u.State = UnitPending
	return true, nil
}

// verifyAndQuarantineDone verifies every done unit's shards and runs
// the repair state machine on failures. Used by Finalize (and Fsck
// with repair enabled) — the fold path verifies in syncDispatch
// instead, before a unit ever becomes done. The caller
// must hold c.mu. Returns the problems found and whether the
// manifest changed.
func verifyAndQuarantineDone(dir string, man *Manifest) (probs []ShardProblem, changed bool, err error) {
	// Re-queue epochs must land past every claim/result file on disk,
	// or the stale result at the current epoch would instantly re-fold.
	claims, err := readClaimFiles(dir, nil)
	if err != nil {
		return nil, false, err
	}
	results, err := readResultFiles(dir, nil)
	if err != nil {
		return nil, false, err
	}
	for i := range man.Units {
		u := &man.Units[i]
		if u.State != UnitDone {
			continue
		}
		unitProbs := verifyShards(dir, u.ID, u.Shards)
		if len(unitProbs) == 0 {
			continue
		}
		probs = append(probs, unitProbs...)
		if _, err := quarantineAndRequeue(dir, man, u, unitProbs, diskEpoch(u, claims, results)+1); err != nil {
			return probs, changed, err
		}
		changed = true
	}
	return probs, changed, nil
}
