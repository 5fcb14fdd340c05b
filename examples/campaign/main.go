// campaign walks through the production screening layer end to end:
//
//  1. run a two-target campaign — a coordinator plus two in-process
//     workers claiming chunks through the campaign directory's lease
//     store, as cmd/campaign runs it — and kill it mid-flight
//     (simulated with a cancelled context, exactly what SIGINT does in
//     cmd/campaign),
//
//  2. resume it from the manifest — completed chunks are skipped,
//     in-flight chunks are fenced and re-run — and finalize the
//     selections,
//
//  3. run the same campaign uninterrupted and show the selections are
//     byte-identical,
//
//  4. project the campaign onto the paper's production system (2M-pose
//     four-node Fusion jobs, 500 Lassen nodes, ~125 jobs in flight)
//     with the discrete-event cluster simulator.
//
//     go run ./examples/campaign
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/campaign/dispatch"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/screen"
)

// demoModel is an untrained but deterministic Coherent Fusion model:
// the walkthrough is about campaign mechanics, not model quality, so
// we skip training time. Seeded construction means a "resuming
// process" rebuilds bit-identical weights — the same property
// cmd/campaign gets from deterministic training.
func demoModel() *fusion.Fusion {
	cnnCfg := fusion.DefaultCNN3DConfig()
	cnnCfg.Voxel = featurize.VoxelOptions{GridSize: 4, Resolution: 6.0, Sigma: 0.8}
	cnnCfg.ConvFilters1 = 4
	cnnCfg.ConvFilters2 = 6
	cnnCfg.DenseNodes = 8
	sg := fusion.DefaultSGCNNConfig()
	sg.CovGatherWidth = 6
	sg.NonCovGatherWidth = 8
	return fusion.NewFusion(fusion.DefaultCoherentConfig(),
		fusion.NewCNN3D(cnnCfg, 1), fusion.NewSGCNN(sg, 2), 3)
}

// demoScorers is the campaign's scorer set: the manifest records the
// names and a resume must present the same set. A single Coherent
// model keeps the walkthrough fast; see examples/consensus for a
// multi-scorer ensemble.
func demoScorers() []screen.Scorer {
	return []screen.Scorer{demoModel()}
}

func demoConfig() campaign.Config {
	cfg := campaign.DefaultConfig()
	cfg.Targets = []string{"protease1", "spike1"}
	cfg.Compounds = 12
	cfg.ChunkSize = 3
	cfg.MaxPoses = 2
	cfg.Workers = 2
	cfg.TopN = 5
	cfg.Job = screen.DefaultJobOptions()
	cfg.Job.Voxel = featurize.VoxelOptions{GridSize: 4, Resolution: 6.0, Sigma: 0.8}
	// The paper's observed four-node failure rate; failed chunks are
	// retried per-chunk by the orchestrator.
	cfg.Job.FailureProb = 0.03
	cfg.Seed = 17
	return cfg
}

// run drives a campaign to settlement: the coordinator plus
// Config.Workers in-process workers sharing its handle. onDone sees
// each unit the coordinator folds done; onClaimed each unit a worker
// claims. Either may be nil.
func run(ctx context.Context, c *campaign.Campaign, onDone func(campaign.ResultRecord), onClaimed func(unit string)) (*campaign.Result, error) {
	co := &dispatch.Coordinator{Camp: c, Poll: 20 * time.Millisecond}
	if onDone != nil {
		co.OnSync = func(rep campaign.SyncReport) {
			for _, rec := range rep.Completed {
				if rec.Err == "" {
					onDone(rec)
				}
			}
		}
	}
	store := campaign.NewDispatchStore(c.Dir(), nil)
	return dispatch.RunLocal(ctx, co, c.Config().Workers, func(i int) *dispatch.Worker {
		w := &dispatch.Worker{ID: dispatch.WorkerID(i), Camp: c, Store: store, Poll: 20 * time.Millisecond}
		if onClaimed != nil {
			w.OnEvent = func(ev dispatch.Event) {
				if ev.Kind == dispatch.EventClaimed {
					onClaimed(ev.Unit)
				}
			}
		}
		return w
	})
}

func selections(dir string) string {
	m, err := campaign.ReadSelections(dir)
	if err != nil {
		log.Fatal(err)
	}
	b, _ := json.MarshalIndent(m, "", "  ")
	return string(b)
}

func main() {
	log.SetFlags(0)
	root, err := os.MkdirTemp("", "campaign-demo")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	// --- 1. Start a campaign and kill it mid-flight. -----------------
	dir := filepath.Join(root, "covid")
	fmt.Println("== run: two targets, 12 compounds, 8 work units ==")
	c, err := campaign.New(dir, demoConfig(), demoScorers())
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	killAfter := 3
	done := 0
	onDone := func(u campaign.ResultRecord) {
		done++
		fmt.Printf("  unit %-16s done (%d poses)\n", u.Unit, u.Poses)
		if done == killAfter {
			fmt.Println("  *** kill -9 (simulated): cancelling mid-campaign ***")
			cancel()
		}
	}
	if _, err := run(ctx, c, onDone, nil); !errors.Is(err, campaign.ErrInterrupted) {
		log.Fatalf("expected an interrupted campaign, got %v", err)
	}
	st, err := campaign.ReadStatus(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("killed at %d/%d units done; manifest is the resume point\n\n", st.Done, st.Total)

	// --- 2. Resume from the manifest. --------------------------------
	fmt.Println("== resume: completed chunks skipped, the rest re-run ==")
	// Load fences the killed run's claims, so their units re-run at
	// once instead of waiting out a lease TTL.
	cr, err := campaign.Load(dir, demoScorers())
	if err != nil {
		log.Fatal(err)
	}
	res, err := run(context.Background(), cr, nil, func(unit string) {
		fmt.Printf("  re-running unit %s\n", unit)
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, tr := range res.PerTarget {
		fmt.Printf("  %s: %d selected, %d primary hits, %d confirmed\n",
			tr.Target, len(tr.Selections), tr.PrimaryHits, tr.Confirmed)
	}
	fmt.Println()

	// --- 3. Uninterrupted control run: identical selections. ---------
	fmt.Println("== control: the same campaign, uninterrupted ==")
	dir2 := filepath.Join(root, "covid-control")
	c2, err := campaign.New(dir2, demoConfig(), demoScorers())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := run(context.Background(), c2, nil, nil); err != nil {
		log.Fatal(err)
	}
	if selections(dir) == selections(dir2) {
		fmt.Println("  resumed and uninterrupted selections are byte-identical")
	} else {
		fmt.Println("  WARNING: selections diverged (this is a bug)")
	}
	fmt.Println()

	// --- 4. Project to paper scale on the cluster simulator. ---------
	fmt.Println("== paper scale: 4 targets x 6.25M compounds on 500 Lassen nodes ==")
	ps := campaign.DefaultPaperScale()
	sim, err := campaign.SimulateAtPaperScale(campaign.DefaultConfig(), ps, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  jobs run:       %d (%d resubmitted after failures)\n", sim.Jobs, sim.Resubmissions)
	fmt.Printf("  peak in flight: %d jobs (paper: ~125)\n", sim.PeakJobs)
	fmt.Printf("  makespan:       %v\n", sim.Makespan)
	fmt.Printf("  queue wait:     mean %v, max %v\n", sim.MeanQueueWait, sim.MaxQueueWait)
	fmt.Printf("  throughput:     %.0f poses/s aggregate\n", sim.PosesPerSecond())
	for _, t := range sim.PerTarget {
		fmt.Printf("    %-12s %3d jobs, %4.1fM poses, drained at %v\n",
			t.Target, t.Jobs, float64(t.PosesScored)/1e6, t.Finish)
	}
}
