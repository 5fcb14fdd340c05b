// Lease-aware claim protocol for the distributed campaign runtime.
//
// The campaign directory is the shared store: next to manifest.json
// and shards/ it gains claims/ and results/. Workers claim a work
// unit by exclusively creating claims/<unit>.e<epoch>.claim — the
// file is materialized complete via temp-write + hard-link, so a
// reader never sees a torn claim and two racing workers can never
// both win (link fails with EEXIST for the loser). The claim's epoch
// is the fence: when a lease expires the coordinator bumps the unit's
// epoch in the manifest and the stale claim file stays behind as a
// tombstone, so a zombie worker resuming after lease loss can only
// ever touch <unit>.e<old> artifacts, which the coordinator ignores.
// Completion is acked by atomically writing
// results/<unit>.e<epoch>.json; only the record matching the unit's
// current epoch is folded into the manifest.
//
// The coordinator is the ONLY writer of manifest.json. Workers read
// it and write claim files, heartbeat renewals (atomic rewrite of
// their own claim file), shards, and result records — all
// temp+rename, mirroring the PR 2 shard protocol, so a kill at any
// instant leaves every file either absent or complete.
package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Claim/ack protocol errors. ErrNoWork and ErrAllDone are the two
// empty-claim outcomes a worker distinguishes: retry later vs exit.
var (
	// ErrNoWork reports that every unfinished unit is currently
	// claimed by some worker; the caller should poll again.
	ErrNoWork = errors.New("campaign: no claimable unit (all leased)")
	// ErrAllDone reports that every unit is done or failed; a worker
	// receiving it exits.
	ErrAllDone = errors.New("campaign: all units settled")
	// ErrLeaseLost reports that the unit's manifest epoch has moved
	// past the claim's — the lease expired and the unit was
	// reassigned. The worker must abandon the unit; any artifacts it
	// already wrote under the old epoch are ignored by the
	// coordinator.
	ErrLeaseLost = errors.New("campaign: lease lost (unit reassigned at a newer epoch)")
)

// LeaseOptions sets the lease state machine's two time constants.
type LeaseOptions struct {
	// TTL is how long a claim stays live past its last heartbeat
	// before the coordinator declares the worker dead and reassigns
	// the unit. Zero means 30s.
	TTL time.Duration
	// Heartbeat is the renewal cadence workers hold themselves to; it
	// must be comfortably under TTL so one missed beat never costs a
	// healthy worker its lease. Zero means TTL/4.
	Heartbeat time.Duration
}

// DefaultLeaseOptions returns the production lease constants.
func DefaultLeaseOptions() LeaseOptions {
	return LeaseOptions{TTL: 30 * time.Second}
}

func (o LeaseOptions) withDefaults() LeaseOptions {
	if o.TTL <= 0 {
		o.TTL = 30 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.TTL / 4
	}
	return o
}

// ClaimRecord is the durable lease on one work unit: which worker
// holds it, at which claim epoch, and when it last proved liveness.
type ClaimRecord struct {
	Unit      string    `json:"unit"`
	Epoch     int       `json:"epoch"`
	Worker    string    `json:"worker"`
	Granted   time.Time `json:"granted"`
	Heartbeat time.Time `json:"heartbeat"`
}

// ResultRecord is a worker's completion ack for one claim: the unit
// outcome plus the (unit, epoch) identity the coordinator fences it
// by. A non-empty Err acks a unit that exhausted its retry budget.
type ResultRecord struct {
	Unit     string    `json:"unit"`
	Epoch    int       `json:"epoch"`
	Worker   string    `json:"worker"`
	Poses    int       `json:"poses"`
	Skipped  int       `json:"skipped"`
	Attempts int       `json:"attempts"`
	Shards   []string  `json:"shards,omitempty"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	Err      string    `json:"error,omitempty"`
}

const (
	claimDirName  = "claims"
	resultDirName = "results"
)

func claimPath(dir, unit string, epoch int) string {
	return filepath.Join(dir, claimDirName, fmt.Sprintf("%s.e%05d.claim", unit, epoch))
}

func resultPath(dir, unit string, epoch int) string {
	return filepath.Join(dir, resultDirName, fmt.Sprintf("%s.e%05d.json", unit, epoch))
}

// ensureDispatchDirs creates the claim and result directories.
func ensureDispatchDirs(dir string) error {
	for _, d := range []string{claimDirName, resultDirName} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return err
		}
	}
	return nil
}

// writeJSONTemp serializes v into a fresh fsynced temp file next to
// path and returns the temp name. The payload passes through the
// disk-fault layer (keyed on the final path) so the lease store's
// exclusive-create is fault-injectable like every other durable
// write.
func writeJSONTemp(path string, v any) (string, error) {
	data, err := marshalJSONRecord(v)
	if err != nil {
		return "", err
	}
	data, err = faultWritePayload(path, data)
	if err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// marshalJSONRecord is the shared on-disk JSON shape: indented, with
// a trailing newline.
func marshalJSONRecord(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// createExclusiveJSON atomically materializes path with v's JSON iff
// path does not exist: the content is written to a temp file first
// and hard-linked into place, so the exclusive create is also
// all-or-nothing — a concurrent reader sees either no file or the
// complete record, and exactly one of two racing creators wins
// (the loser gets fs.ErrExist).
func createExclusiveJSON(path string, v any) error {
	tmp, err := writeJSONTemp(path, v)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	if err := os.Link(tmp, path); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return fs.ErrExist
		}
		return err
	}
	// Make the new directory entry durable: a claim that evaporates on
	// reboot would let two workers win the same unit across a crash.
	return syncDir(filepath.Dir(path))
}

// WriteJSONAtomic atomically and durably replaces path with v's JSON
// (temp-write + fsync + rename + parent-dir fsync, via commitBytes) —
// the heartbeat-renewal and result-ack write primitive, also reused
// by the screening service for request records.
func WriteJSONAtomic(path string, v any) error {
	data, err := marshalJSONRecord(v)
	if err != nil {
		return err
	}
	return commitBytes(path, data)
}

// WriteBytesAtomic atomically and durably replaces path with data
// (temp-write + fsync + rename + parent-dir fsync, via commitBytes) —
// the raw-bytes member of the atomic-write family, used by the HTTP
// dispatch server to land uploaded shard bytes and by remote workers
// to mirror the manifest. A kill or power loss at any instant leaves
// path absent, the old content, or the new content — never a torn
// file.
func WriteBytesAtomic(path string, data []byte) error {
	return commitBytes(path, data)
}

// parseEpochName splits "<unit>.e<NNNNN><ext>" into (unit, epoch).
func parseEpochName(name, ext string) (string, int, bool) {
	if !strings.HasSuffix(name, ext) {
		return "", 0, false
	}
	stem := strings.TrimSuffix(name, ext)
	i := strings.LastIndex(stem, ".e")
	if i < 0 {
		return "", 0, false
	}
	epoch, err := strconv.Atoi(stem[i+2:])
	if err != nil {
		return "", 0, false
	}
	return stem[:i], epoch, true
}

// readClaimFiles loads the claim records of every unit keep accepts
// (every unit when keep is nil), keyed unit -> epoch. Unparsable
// files (a crashed writer's leftover temp, a truncated record —
// impossible under the link/rename protocol but cheap to tolerate)
// are skipped.
func readClaimFiles(dir string, keep func(unit string) bool) (map[string]map[int]ClaimRecord, error) {
	return readEpochJSON[ClaimRecord](filepath.Join(dir, claimDirName), ".claim", keep)
}

// readResultFiles loads the result records of every unit keep accepts
// (every unit when keep is nil), keyed unit -> epoch.
func readResultFiles(dir string, keep func(unit string) bool) (map[string]map[int]ResultRecord, error) {
	return readEpochJSON[ResultRecord](filepath.Join(dir, resultDirName), ".json", keep)
}

// readEpochJSON lists dir and decodes the files named
// "<unit>.e<NNNNN><ext>" whose unit keep accepts; the name alone
// decides, so a skipped file is never opened.
func readEpochJSON[T any](dir, ext string, keep func(unit string) bool) (map[string]map[int]T, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := map[string]map[int]T{}
	for _, e := range entries {
		unit, epoch, ok := parseEpochName(e.Name(), ext)
		if !ok || (keep != nil && !keep(unit)) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		var rec T
		if err := json.Unmarshal(data, &rec); err != nil {
			continue
		}
		m, ok := out[unit]
		if !ok {
			m = map[int]T{}
			out[unit] = m
		}
		m[epoch] = rec
	}
	return out, nil
}

// maxEpoch returns the largest epoch key in m, or -1 when empty.
func maxEpoch[T any](m map[int]T) int {
	max := -1
	for e := range m {
		if e > max {
			max = e
		}
	}
	return max
}
