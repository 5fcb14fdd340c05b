// Offline campaign integrity check and repair — `campaign fsck`.
//
// Fsck walks a campaign directory with no workers attached: every
// done unit's shards are decoded end to end (full CRC verification),
// claim and result records are parsed, and the shard directory is
// cross-referenced against the manifest. Problems are reported; with
// repair enabled, damaged shards are quarantined (never deleted) and
// their units re-queued at a fresh epoch so the next run re-executes
// exactly the damaged work — the offline twin of the online
// quarantine-and-re-queue path in syncDispatch/Finalize.
package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FsckProblem is one finding from an offline integrity walk.
type FsckProblem struct {
	// Kind classifies the finding: "corrupt-shard", "missing-shard",
	// "bad-claim", "bad-result", "orphan-shard".
	Kind string `json:"kind"`
	// Unit is the owning unit, when attributable.
	Unit string `json:"unit,omitempty"`
	// Path is the offending file relative to the campaign directory.
	Path string `json:"path,omitempty"`
	// Detail is the human-readable diagnosis (for corrupt shards this
	// is the h5lite CorruptError naming section and offset).
	Detail string `json:"detail"`
}

// FsckReport summarizes an offline integrity walk.
type FsckReport struct {
	Dir           string        `json:"dir"`
	UnitsChecked  int           `json:"units_checked"`
	ShardsChecked int           `json:"shards_checked"`
	Problems      []FsckProblem `json:"problems,omitempty"`
	// Repaired lists units re-queued by a repair pass (quarantined
	// shards, fresh epoch, pending state).
	Repaired []string `json:"repaired,omitempty"`
	// Quarantined lists the quarantine-relative destinations of shard
	// files a repair pass moved.
	Quarantined []string `json:"quarantined,omitempty"`
	// Corruptions and Repairs mirror the manifest's lifetime counters
	// after the walk.
	Corruptions int `json:"corruptions"`
	Repairs     int `json:"repairs"`
}

// Clean reports whether the walk found nothing wrong.
func (r FsckReport) Clean() bool { return len(r.Problems) == 0 }

// Fsck verifies a campaign directory offline. With repair false it
// only reports; with repair true it additionally quarantines damaged
// shards, re-queues their units at a fresh epoch (ignoring the online
// repair budget — fsck -repair is an explicit operator action, though
// it still advances the budget counters), clears a finalization built
// on now-quarantined shards, and persists the manifest. Run it only
// when no coordinator or worker is attached to the directory: fsck is
// a second manifest writer.
func Fsck(dir string, repair bool) (FsckReport, error) {
	rep := FsckReport{Dir: dir}
	man, err := loadManifest(dir)
	if err != nil {
		return rep, err
	}
	claims, err := readClaimFiles(dir, nil)
	if err != nil {
		return rep, err
	}
	results, err := readResultFiles(dir, nil)
	if err != nil {
		return rep, err
	}

	changed := false
	referenced := map[string]bool{}
	for i := range man.Units {
		u := &man.Units[i]
		for _, rel := range u.Shards {
			referenced[filepath.Base(rel)] = true
		}
		if u.State != UnitDone {
			continue
		}
		rep.UnitsChecked++
		rep.ShardsChecked += len(u.Shards)
		probs := verifyShards(dir, u.ID, u.Shards)
		if len(probs) == 0 {
			continue
		}
		for _, p := range probs {
			kind := "corrupt-shard"
			if p.Missing {
				kind = "missing-shard"
			}
			rep.Problems = append(rep.Problems, FsckProblem{
				Kind:   kind,
				Unit:   p.Unit,
				Path:   p.Shard,
				Detail: p.String(),
			})
		}
		if !repair {
			continue
		}
		for _, p := range probs {
			dst, qerr := quarantineShard(dir, p.Shard)
			if qerr != nil {
				return rep, qerr
			}
			if dst != "" {
				rel, _ := filepath.Rel(dir, dst)
				rep.Quarantined = append(rep.Quarantined, rel)
			}
		}
		man.Corruptions += len(probs)
		man.Repairs++
		u.Repairs++
		u.Epoch = diskEpoch(u, claims, results) + 1
		u.State = UnitPending
		u.Worker = ""
		u.Poses = 0
		u.Skipped = 0
		u.Shards = nil
		rep.Repaired = append(rep.Repaired, u.ID)
		changed = true
	}

	// A finalization that folded shards now quarantined is stale:
	// selections must be rebuilt from the repaired units.
	if repair && changed && man.Finalized {
		man.Finalized = false
		man.Selections = nil
	}

	// Surface claim/result files the fold loop silently skips: under
	// the link/rename protocol they should never be torn, so a
	// malformed one is worth a human's attention even though it cannot
	// poison the manifest.
	rep.Problems = append(rep.Problems, scanEpochDir(dir, claimDirName, ".claim")...)
	rep.Problems = append(rep.Problems, scanEpochDir(dir, resultDirName, ".json")...)

	// Orphan shards — present on disk but referenced by no unit — are
	// expected residue of fenced zombie epochs; report them so an
	// operator can judge, but never touch them.
	if entries, err := os.ReadDir(ShardDir(dir)); err == nil {
		for _, e := range entries {
			if e.IsDir() || strings.Contains(e.Name(), ".tmp") {
				continue
			}
			if !referenced[e.Name()] {
				rep.Problems = append(rep.Problems, FsckProblem{
					Kind:   "orphan-shard",
					Path:   filepath.Join(shardDirName, e.Name()),
					Detail: "shard on disk is referenced by no unit (fenced epoch residue); left in place",
				})
			}
		}
	}
	sort.SliceStable(rep.Problems, func(a, b int) bool {
		if rep.Problems[a].Kind != rep.Problems[b].Kind {
			return rep.Problems[a].Kind < rep.Problems[b].Kind
		}
		return rep.Problems[a].Path < rep.Problems[b].Path
	})

	if changed {
		if err := saveManifest(dir, man); err != nil {
			return rep, fmt.Errorf("campaign: fsck: persist repaired manifest: %w", err)
		}
	}
	rep.Corruptions = man.Corruptions
	rep.Repairs = man.Repairs
	return rep, nil
}

// scanEpochDir reports files in claims/ or results/ that do not parse
// as their record type (the fold loop tolerates and skips them).
func scanEpochDir(dir, sub, ext string) []FsckProblem {
	var probs []FsckProblem
	full := filepath.Join(dir, sub)
	entries, err := os.ReadDir(full)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return []FsckProblem{{Kind: "bad-" + strings.TrimSuffix(sub, "s"), Path: sub, Detail: err.Error()}}
	}
	kind := "bad-" + strings.TrimSuffix(sub, "s") // claims -> bad-claim
	for _, e := range entries {
		if e.IsDir() || strings.Contains(e.Name(), ".tmp") {
			continue
		}
		rel := filepath.Join(sub, e.Name())
		if _, _, ok := parseEpochName(e.Name(), ext); !ok {
			probs = append(probs, FsckProblem{Kind: kind, Path: rel, Detail: "unrecognized name (not <unit>.eNNNNN" + ext + ")"})
			continue
		}
		data, err := os.ReadFile(filepath.Join(full, e.Name()))
		if err != nil {
			probs = append(probs, FsckProblem{Kind: kind, Path: rel, Detail: err.Error()})
			continue
		}
		var v json.RawMessage
		if err := json.Unmarshal(data, &v); err != nil {
			probs = append(probs, FsckProblem{Kind: kind, Path: rel, Detail: fmt.Sprintf("malformed JSON: %v", err)})
		}
	}
	return probs
}
