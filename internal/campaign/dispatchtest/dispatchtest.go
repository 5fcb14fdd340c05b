// Package dispatchtest holds the shared verification kit for the
// campaign runtime: the tiny deterministic campaign fixture, Run (the
// runtime with test-speed polls), and the Dispatcher conformance suite
// both the filesystem store and the HTTP backend must pass. It lives
// outside the _test files so the dispatch, dispatchhttp and campaign
// test packages can all drive one kit instead of three drifting
// copies; those packages' tests import it from their external
// (_test) packages.
package dispatchtest

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/campaign/dispatch"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/screen"
)

// TinyModel builds an untrained-but-deterministic Coherent Fusion
// model: two calls with the same seeds produce identical weights, so
// every worker process (and every worker incarnation in the chaos
// harnesses) reconstructs exactly the scorer the coordinator
// recorded.
func TinyModel() *fusion.Fusion {
	cnnCfg := fusion.DefaultCNN3DConfig()
	cnnCfg.Voxel = featurize.VoxelOptions{GridSize: 4, Resolution: 6.0, Sigma: 0.8}
	cnnCfg.ConvFilters1 = 4
	cnnCfg.ConvFilters2 = 6
	cnnCfg.DenseNodes = 8
	sgCfg := fusion.DefaultSGCNNConfig()
	sgCfg.CovGatherWidth = 6
	sgCfg.NonCovGatherWidth = 8
	cnn := fusion.NewCNN3D(cnnCfg, 1)
	sg := fusion.NewSGCNN(sgCfg, 2)
	return fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, 3)
}

// TinyScorers wraps TinyModel as a one-scorer set.
func TinyScorers() []screen.Scorer {
	return []screen.Scorer{TinyModel()}
}

// TinyConfig is a three-target campaign with three work units per
// target: enough grid for reassignment churn, small enough to run in
// unit-test time.
func TinyConfig() campaign.Config {
	cfg := campaign.DefaultConfig()
	cfg.Targets = []string{"protease1", "protease2", "spike1"}
	cfg.Compounds = 6
	cfg.ChunkSize = 2
	cfg.MaxPoses = 2
	cfg.Workers = 2
	cfg.TopN = 4
	cfg.Shards = 2
	cfg.Job = screen.DefaultJobOptions()
	cfg.Job.Voxel = featurize.VoxelOptions{GridSize: 4, Resolution: 6.0, Sigma: 0.8}
	cfg.Seed = 11
	return cfg
}

// SelectionBytes serializes a finalized campaign's per-target
// selections — the byte-identity oracle shared by every
// campaign-runtime test.
func SelectionBytes(t *testing.T, dir string) []byte {
	t.Helper()
	sel, err := campaign.ReadSelections(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(sel, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Hooks observe a Run; either may be nil.
type Hooks struct {
	// Claimed sees each unit a worker claims.
	Claimed func(unit string)
	// Done sees each unit the coordinator folds done.
	Done func(campaign.ResultRecord)
}

// Poll is the coordinator and worker poll Run uses: short, so a test
// campaign settles in milliseconds of idle time.
const Poll = 5 * time.Millisecond

// Run drives c to settlement the way every campaign runs:
// dispatch.RunLocal with c.Config().Workers workers sharing c over the
// filesystem lease store.
func Run(ctx context.Context, c *campaign.Campaign, h Hooks) (*campaign.Result, error) {
	co := &dispatch.Coordinator{Camp: c, Poll: Poll}
	if h.Done != nil {
		co.OnSync = func(rep campaign.SyncReport) {
			for _, rec := range rep.Completed {
				if rec.Err == "" {
					h.Done(rec)
				}
			}
		}
	}
	store := campaign.NewDispatchStore(c.Dir(), nil)
	return dispatch.RunLocal(ctx, co, c.Config().Workers, func(i int) *dispatch.Worker {
		w := &dispatch.Worker{ID: dispatch.WorkerID(i), Camp: c, Store: store, Poll: Poll}
		if h.Claimed != nil {
			w.OnEvent = func(ev dispatch.Event) {
				if ev.Kind == dispatch.EventClaimed {
					h.Claimed(ev.Unit)
				}
			}
		}
		return w
	})
}

// ReferenceRun executes the campaign uninterrupted and returns its
// directory and selection bytes — the answer every chaos, transport
// and multi-process run must reproduce exactly.
func ReferenceRun(t *testing.T, cfg campaign.Config) (string, []byte) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ref")
	c, err := campaign.New(dir, cfg, TinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), c, Hooks{}); err != nil {
		t.Fatal(err)
	}
	return dir, SelectionBytes(t, dir)
}
