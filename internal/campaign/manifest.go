package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// UnitState is the lifecycle of one work unit in the manifest.
type UnitState string

// Unit states. InFlight units are held by a worker's claim; if the
// run dies with them in flight, the next Load fences the claims and
// they re-run. Failed units exhausted their per-chunk retry budget
// (or their repair budget) and are retried, with advanced
// failure-injection seeds, after the next Load.
const (
	UnitPending  UnitState = "pending"
	UnitInFlight UnitState = "inflight"
	UnitDone     UnitState = "done"
	UnitFailed   UnitState = "failed"
)

// UnitRecord is the durable state of one work unit: one compound
// chunk docked and scored against one target, with its output shard
// files. The compound range [Lo, Hi) indexes the campaign deck, which
// is regenerated deterministically from the manifest config.
type UnitRecord struct {
	ID       string    `json:"id"`
	Target   string    `json:"target"`
	Chunk    int       `json:"chunk"`
	Lo       int       `json:"lo"`
	Hi       int       `json:"hi"`
	State    UnitState `json:"state"`
	Attempts int       `json:"attempts"` // Fusion job attempts consumed so far
	Poses    int       `json:"poses"`    // docked poses scored (done units)
	Skipped  int       `json:"skipped"`  // compounds that failed prep/docking
	Shards   []string  `json:"shards"`   // shard filenames relative to the campaign dir
	// Epoch is the unit's claim generation. A unit's first claim is
	// at epoch 0; each lease-expiry reassignment, repair re-queue and
	// Load fence bumps it. Claim files and result acks are
	// epoch-named, so artifacts from a fenced (zombie) worker can
	// never be confused with the current owner's.
	Epoch int `json:"epoch,omitempty"`
	// Worker is the worker holding (in-flight) or last holding (done/
	// failed) the unit's lease.
	Worker string `json:"worker,omitempty"`
	// Repairs counts corruption re-queues this unit has consumed from
	// its lifetime repair budget (Config.MaxRepairs). A unit whose
	// shards keep failing verification past the budget parks as
	// failed instead of looping forever.
	Repairs int `json:"repairs,omitempty"`
}

// WorkerRecord is the manifest's durable liveness and throughput
// record for one distributed worker, folded from its claim heartbeats
// and result acks by the coordinator.
type WorkerRecord struct {
	ID        string    `json:"id"`
	FirstSeen time.Time `json:"first_seen"`
	LastBeat  time.Time `json:"last_heartbeat"`
	Leases    []string  `json:"leases,omitempty"` // unit IDs currently held
	UnitsDone int       `json:"units_done"`
	PosesDone int       `json:"poses_done"`
}

// SelectionRecord is one selected compound in the finalized campaign:
// the per-compound aggregated scores, the combined cost-function
// value, and the two-stage experimental confirmation readout.
type SelectionRecord struct {
	CompoundID string  `json:"compound_id"`
	Fusion     float64 `json:"fusion_pk"`
	Vina       float64 `json:"vina_kcal"`
	MMGBSA     float64 `json:"mmgbsa_kcal"`
	AMPL       float64 `json:"ampl_kcal"`
	Combined   float64 `json:"combined"`
	NumPoses   int     `json:"num_poses"`
	Inhibition float64 `json:"inhibition_pct"`
	PrimaryHit bool    `json:"primary_hit"`
	Confirmed  bool    `json:"confirmed"`
}

// Manifest is the durable campaign state: the configuration the deck
// and unit grid are deterministically derived from, the per-unit
// progress, and (once finalized) the per-target selections. It lives
// as manifest.json in the campaign directory next to the shard files,
// and is rewritten atomically after every state change so a killed
// process leaves a consistent view: completed chunks are skipped on
// resume, in-flight chunks re-run.
type Manifest struct {
	Version    int                          `json:"version"`
	Name       string                       `json:"name"`
	Config     Config                       `json:"config"`
	DeckSize   int                          `json:"deck_size"`
	Units      []UnitRecord                 `json:"units"`
	Finalized  bool                         `json:"finalized"`
	Selections map[string][]SelectionRecord `json:"selections,omitempty"`
	// Workers and Reassignments are maintained by the coordinator: per-worker liveness/throughput, and the number of
	// lease-expiry reassignments over the campaign's lifetime.
	Workers       map[string]*WorkerRecord `json:"workers,omitempty"`
	Reassignments int                      `json:"reassignments,omitempty"`
	// Corruptions counts shard files that failed integrity
	// verification over the campaign's lifetime (each was quarantined,
	// never folded); Repairs counts the corruption re-queues granted
	// in response. Repairs < Corruptions means some unit exhausted its
	// budget and parked as failed.
	Corruptions int `json:"corruptions,omitempty"`
	Repairs     int `json:"repairs,omitempty"`
}

const (
	manifestVersion = 1
	manifestName    = "manifest.json"
	shardDirName    = "shards"
)

// manifestPath returns the manifest location inside a campaign dir.
func manifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// ManifestPath returns the manifest.json location inside a campaign
// directory — exported for the HTTP dispatch layer, which serves the
// raw manifest bytes to remote workers and mirrors them into a local
// scratch directory.
func ManifestPath(dir string) string { return manifestPath(dir) }

// ShardDir returns the shard directory inside a campaign directory —
// where the HTTP dispatch server lands shard bytes uploaded by remote
// workers.
func ShardDir(dir string) string { return filepath.Join(dir, shardDirName) }

// saveManifest writes the manifest through commitBytes: temp file in
// the campaign directory, fsync, rename over the live copy, fsync the
// directory. A kill at any instant leaves either the old or the new
// manifest, never a torn one, and the rename survives power loss.
func saveManifest(dir string, m *Manifest) error {
	data, err := marshalJSONRecord(m)
	if err != nil {
		return fmt.Errorf("campaign: marshal manifest: %w", err)
	}
	return commitBytes(manifestPath(dir), data)
}

// loadManifest reads and validates a campaign manifest.
func loadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("campaign: no manifest in %s: %w", dir, err)
	}
	return parseManifest(dir, data)
}

// parseManifest decodes and validates the manifest bytes read from
// dir (named in errors only).
func parseManifest(dir string, data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("campaign: corrupt manifest in %s: %w", dir, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("campaign: manifest version %d, want %d", m.Version, manifestVersion)
	}
	// Manifests written before the Scorer redesign recorded no scorer
	// set; they were all single-Coherent campaigns.
	if len(m.Config.Scorers) == 0 {
		m.Config.Scorers = []string{"coherent"}
	}
	// Manifests written before the precision knob recorded no engine
	// precision; they were all scored on the f64 reference path.
	m.Config.Job.Precision = m.Config.Job.Precision.Normalize()
	if err := m.Config.Job.Precision.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: manifest in %s: %w", dir, err)
	}
	return &m, nil
}

// TargetStatus summarizes one target's unit progress. The JSON tags
// are the stable machine-readable shape `campaign status -json` and
// ops tooling consume.
type TargetStatus struct {
	Target string `json:"target"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Poses  int    `json:"poses"`
}

// WorkerStatus summarizes one distributed worker's liveness from the
// manifest: when it last proved itself alive, what it holds, and its
// completed-unit throughput.
type WorkerStatus struct {
	ID        string    `json:"id"`
	FirstSeen time.Time `json:"first_seen"`
	LastBeat  time.Time `json:"last_beat"`
	Leases    []string  `json:"leases,omitempty"`
	UnitsDone int       `json:"units_done"`
	PosesDone int       `json:"poses_done"`
	// UnitsPerSec is UnitsDone over the worker's observed lifetime
	// (first claim to last heartbeat) — derived purely from the
	// manifest, so `campaign status` needs no live connection.
	UnitsPerSec float64 `json:"units_per_sec"`
	// DispatchRetries and DispatchBackoffs count the transient
	// dispatch-call retries and backoff sleeps this worker has burned
	// reaching the coordinator. Only the HTTP backend populates them
	// (the coordinator's dispatch server folds them into its /status
	// response from the clients' request headers); a shared-filesystem
	// campaign leaves them zero.
	DispatchRetries  int `json:"dispatch_retries,omitempty"`
	DispatchBackoffs int `json:"dispatch_backoffs,omitempty"`
}

// Status is a point-in-time campaign summary derived from the
// manifest.
type Status struct {
	Name string `json:"name"`
	Dir  string `json:"dir"`
	// Backend names the dispatch backend the status was read through:
	// "fs" for a manifest read off the (shared) filesystem, "http"
	// when served by a coordinator's dispatch server. Coordinator is
	// the serving address in the http case.
	Backend       string         `json:"backend,omitempty"`
	Coordinator   string         `json:"coordinator,omitempty"`
	DeckSize      int            `json:"deck_size"`
	Scorers       []string       `json:"scorers"`   // the manifest's recorded scorer set, primary first
	Precision     string         `json:"precision"` // the manifest's recorded engine precision ("f64"/"f32")
	Done          int            `json:"done"`
	InFlight      int            `json:"in_flight"`
	Pending       int            `json:"pending"`
	Failed        int            `json:"failed"`
	Total         int            `json:"total"`
	Poses         int            `json:"poses"`
	Finalized     bool           `json:"finalized"`
	Reassignments int            `json:"reassignments"` // lease-expiry reassignments (distributed runs)
	Corruptions   int            `json:"corruptions"`   // shards that failed verification (quarantined, never folded)
	Repairs       int            `json:"repairs"`       // corruption re-queues granted under the repair budget
	PerTarget     []TargetStatus `json:"per_target"`
	Workers       []WorkerStatus `json:"workers,omitempty"` // distributed workers, sorted by ID
}

// status folds the manifest's unit grid into per-state and per-target
// counts.
func (m *Manifest) status(dir string) Status {
	s := Status{
		Name:          m.Name,
		Dir:           dir,
		Backend:       "fs",
		DeckSize:      m.DeckSize,
		Scorers:       m.Config.Scorers,
		Precision:     string(m.Config.Job.Precision.Normalize()),
		Total:         len(m.Units),
		Finalized:     m.Finalized,
		Reassignments: m.Reassignments,
		Corruptions:   m.Corruptions,
		Repairs:       m.Repairs,
	}
	for _, w := range m.Workers {
		ws := WorkerStatus{
			ID:        w.ID,
			FirstSeen: w.FirstSeen,
			LastBeat:  w.LastBeat,
			Leases:    w.Leases,
			UnitsDone: w.UnitsDone,
			PosesDone: w.PosesDone,
		}
		if life := w.LastBeat.Sub(w.FirstSeen); life > 0 && w.UnitsDone > 0 {
			ws.UnitsPerSec = float64(w.UnitsDone) / life.Seconds()
		}
		s.Workers = append(s.Workers, ws)
	}
	sort.Slice(s.Workers, func(a, b int) bool { return s.Workers[a].ID < s.Workers[b].ID })
	byTarget := map[string]*TargetStatus{}
	var order []string
	for _, u := range m.Units {
		ts, ok := byTarget[u.Target]
		if !ok {
			ts = &TargetStatus{Target: u.Target}
			byTarget[u.Target] = ts
			order = append(order, u.Target)
		}
		ts.Total++
		switch u.State {
		case UnitDone:
			s.Done++
			s.Poses += u.Poses
			ts.Done++
			ts.Poses += u.Poses
		case UnitInFlight:
			s.InFlight++
		case UnitFailed:
			s.Failed++
		default:
			s.Pending++
		}
	}
	sort.Strings(order)
	for _, t := range order {
		s.PerTarget = append(s.PerTarget, *byTarget[t])
	}
	return s
}

// ReadConfig loads only the stored configuration of a campaign
// directory — enough for a resuming process to rebuild the scoring
// model before paying for Load's deck regeneration.
func ReadConfig(dir string) (Config, error) {
	m, err := loadManifest(dir)
	if err != nil {
		return Config{}, err
	}
	return m.Config, nil
}

// ReadSelections loads the finalized per-target selections of a
// campaign directory.
func ReadSelections(dir string) (map[string][]SelectionRecord, error) {
	m, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if !m.Finalized {
		return nil, fmt.Errorf("campaign: %s is not finalized", dir)
	}
	return m.Selections, nil
}

// ReadStatus loads the manifest of a campaign directory and returns
// its progress summary without constructing models or a deck — the
// cheap path behind `campaign status`.
func ReadStatus(dir string) (Status, error) {
	m, err := loadManifest(dir)
	if err != nil {
		return Status{}, err
	}
	return m.status(dir), nil
}
