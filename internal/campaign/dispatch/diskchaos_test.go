package dispatch_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deepfusion/internal/campaign"
	. "deepfusion/internal/campaign/dispatch"
)

// TestDiskChaosDistributedByteIdentical drives the distributed
// runtime through every scripted disk-fault kind at once: two silent
// write corruptions (torn write, bit flip) that the writer acks as
// success, two visible write failures (ENOSPC, rename) that kill
// their worker incarnation mid-unit, and two read-side faults (short
// read, bit flip) that hit fold-time verification of perfectly good
// files. The campaign must absorb all of it — corrupt folds
// quarantined and re-queued, dead workers' leases reassigned,
// transient read damage treated as corruption (conservatively
// re-executed, never folded) — and still finalize selections
// byte-identical to an unfaulted single-process run, with every pose
// counted exactly once and every fault accounted for in the manifest
// counters. Runs on virtual time; -race covers the concurrent fault
// plan.
func TestDiskChaosDistributedByteIdentical(t *testing.T) {
	cfg := tinyConfig()
	refDir, refBytes := referenceRun(t, cfg)

	dir := filepath.Join(t.TempDir(), "diskchaos")
	c, err := campaign.New(dir, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}

	fc := campaign.NewFakeClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	fc.SetAutoAdvance(true)
	lease := campaign.LeaseOptions{TTL: 30 * time.Minute, Heartbeat: time.Second}

	// One fault per distinct unit so each recovery path is exercised
	// in isolation; all five kinds are covered.
	faults := campaign.NewDiskFaults(fc,
		// Silent write corruption: the worker acks success, fold-time
		// CRC verification catches it, quarantine + re-queue.
		campaign.DiskFault{Op: "write", Kind: campaign.FaultTornWrite, Path: "protease1_c000_s00.h5l", Byte: 64},
		campaign.DiskFault{Op: "write", Kind: campaign.FaultBitFlip, Path: "protease2_c001_s01.h5l", Byte: 100},
		// Visible write failure: the worker incarnation dies mid-unit,
		// its lease expires, the unit is reassigned at a fresh epoch.
		campaign.DiskFault{Op: "write", Kind: campaign.FaultENOSPC, Path: "spike1_c000_s00.h5l"},
		campaign.DiskFault{Op: "rename", Kind: campaign.FaultRenameFail, Path: "protease1_c002_s00.h5l"},
		// Transient read damage during fold verification of healthy
		// files: treated exactly like corruption — the shard is
		// quarantined and the unit re-executed, never silently folded.
		campaign.DiskFault{Op: "read", Kind: campaign.FaultShortRead, Path: "protease2_c000_s00.h5l", Byte: 30},
		campaign.DiskFault{Op: "read", Kind: campaign.FaultBitFlip, Path: "spike1_c002_s01.h5l", Byte: 17},
	)
	defer campaign.SetDiskFaults(faults)()

	runCtx, cancelRun := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancelRun()

	injectedDeath := func(err error) bool {
		return errors.Is(err, campaign.ErrInjectedENOSPC) || errors.Is(err, campaign.ErrInjectedRename)
	}

	workerErrs := make(chan error, 64)
	var deaths int32
	var deathMu sync.Mutex
	var slotWG sync.WaitGroup
	for slot := 0; slot < 3; slot++ {
		slotWG.Add(1)
		go func(slot int) {
			defer slotWG.Done()
			for gen := 0; ; gen++ {
				if runCtx.Err() != nil {
					return
				}
				h, err := campaign.Attach(dir, tinyScorers())
				if err != nil {
					workerErrs <- err
					return
				}
				w := &Worker{
					ID:    fmt.Sprintf("w%d-g%02d", slot, gen),
					Camp:  h,
					Store: campaign.NewDispatchStore(dir, fc),
					Clock: fc,
					Lease: lease,
					Poll:  time.Second,
					// A visible disk fault must not be retried as a
					// transient store blip: the incarnation dies, like a
					// process whose filesystem just failed under it.
					StoreAttempts: 1,
				}
				err = w.Run(runCtx)
				if err == nil {
					return // campaign settled
				}
				if runCtx.Err() != nil {
					return
				}
				if injectedDeath(err) {
					deathMu.Lock()
					deaths++
					deathMu.Unlock()
					continue // fresh incarnation takes the slot
				}
				workerErrs <- fmt.Errorf("worker %s: %w", w.ID, err)
				return
			}
		}(slot)
	}

	co := &Coordinator{Camp: c, Clock: fc, Lease: lease, Poll: time.Second}
	res, err := co.Run(runCtx)
	cancelRun()
	slotWG.Wait()
	close(workerErrs)
	for werr := range workerErrs {
		t.Error(werr)
	}
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if res == nil || len(res.PerTarget) != len(cfg.Targets) {
		t.Fatalf("result = %+v, want %d targets", res, len(cfg.Targets))
	}

	// The plan drained: every scripted fault actually fired.
	if left := faults.Remaining(); left != 0 {
		t.Fatalf("%d scripted disk faults never fired: %+v", left, faults.Injected())
	}
	deathMu.Lock()
	d := deaths
	deathMu.Unlock()
	if d != 2 {
		t.Fatalf("%d worker incarnations died of visible disk faults, want 2 (enospc, rename)", d)
	}

	// Byte identity and exactly-once pose accounting.
	st, err := campaign.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	refSt, err := campaign.ReadStatus(refDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Poses != refSt.Poses {
		t.Fatalf("chaos run scored %d poses vs reference %d — a corrupt fold was double-counted or lost", st.Poses, refSt.Poses)
	}
	if got := selectionBytes(t, dir); !bytes.Equal(got, refBytes) {
		t.Fatalf("selections differ from the unfaulted run:\nchaos:\n%s\nreference:\n%s", got, refBytes)
	}

	// Corruption accounting: the two silent write corruptions and the
	// two read-side faults each quarantined one shard and earned one
	// repair re-queue; the visible failures are reassignments, not
	// corruptions.
	if st.Corruptions != 4 || st.Repairs != 4 {
		t.Fatalf("status corruptions=%d repairs=%d, want 4/4", st.Corruptions, st.Repairs)
	}
	if st.Reassignments < 2 {
		t.Fatalf("reassignments = %d, want >= 2 (each visible fault orphans a lease)", st.Reassignments)
	}
	if st.Done != st.Total {
		t.Fatalf("%d/%d units done after self-healing", st.Done, st.Total)
	}
	ents, err := os.ReadDir(campaign.QuarantineDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("quarantine holds %d files, want 4 (nothing deleted, nothing extra)", len(ents))
	}

	// Offline fsck agrees the healed campaign is sound (orphan shards
	// are expected residue of re-queued epochs and fenced incarnations).
	rep, err := campaign.Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		if p.Kind != "orphan-shard" {
			t.Fatalf("post-chaos fsck reports %+v", p)
		}
	}
}
