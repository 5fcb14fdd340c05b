package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	. "deepfusion/internal/campaign"
)

// TestTornShardSelfHeals is the self-healing guarantee: a shard
// silently torn on its way to disk (the write reported success, the
// unit acked) is caught by fold-time CRC verification, quarantined, and its unit re-executed at a fresh
// epoch — and the campaign still completes with selections
// byte-identical to an unfaulted run.
func TestTornShardSelfHeals(t *testing.T) {
	cfg := tinyConfig()

	dirA := filepath.Join(t.TempDir(), "reference")
	ca, err := New(dirA, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), ca); err != nil {
		t.Fatal(err)
	}
	wantSel := selectionBytes(t, dirA)

	dirB := filepath.Join(t.TempDir(), "faulted")
	faults := NewDiskFaults(nil, DiskFault{
		Op:   "write",
		Kind: FaultTornWrite,
		Path: "protease1_c000_s00.h5l",
		Byte: 40,
	})
	defer SetDiskFaults(faults)()
	cb, err := New(dirB, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), cb); err != nil {
		t.Fatalf("self-healing run failed: %v", err)
	}

	if n := faults.Remaining(); n != 0 {
		t.Fatalf("%d faults never fired", n)
	}
	if got := selectionBytes(t, dirB); !bytes.Equal(got, wantSel) {
		t.Fatal("selections after self-heal differ from the unfaulted run")
	}
	man, err := LoadManifest(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if man.Corruptions != 1 || man.Repairs != 1 {
		t.Fatalf("manifest counters corruptions=%d repairs=%d, want 1/1", man.Corruptions, man.Repairs)
	}
	var healed *UnitRecord
	for i := range man.Units {
		if man.Units[i].ID == "protease1_c000" {
			healed = &man.Units[i]
		}
	}
	if healed == nil || healed.State != UnitDone || healed.Repairs != 1 || healed.Epoch == 0 {
		t.Fatalf("healed unit record %+v, want done at a fresh epoch with repairs=1", healed)
	}
	// The damaged shard is preserved in quarantine, not deleted.
	if _, err := os.Stat(filepath.Join(QuarantineDir(dirB), "protease1_c000_s00.h5l")); err != nil {
		t.Fatalf("torn shard not in quarantine: %v", err)
	}
	st, err := ReadStatus(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corruptions != 1 || st.Repairs != 1 {
		t.Fatalf("status counters corruptions=%d repairs=%d, want 1/1", st.Corruptions, st.Repairs)
	}
}

// TestRepairBudgetExhaustionFailsLoudly pins the bound on the healing
// loop: a unit whose shards keep landing corrupt past
// Config.MaxRepairs parks failed and the run surfaces the quarantine
// error instead of looping or silently folding damage.
func TestRepairBudgetExhaustionFailsLoudly(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxRepairs = 1

	dir := filepath.Join(t.TempDir(), "exhausted")
	// Epoch 0 writes protease1_c000_s00.h5l; the repair re-queue
	// re-executes at epoch 1 under the epoch-qualified name. Corrupt
	// both: the second corruption exhausts the budget of 1.
	faults := NewDiskFaults(nil,
		DiskFault{Op: "write", Kind: FaultTornWrite, Path: "protease1_c000_s00.h5l", Byte: 12},
		DiskFault{Op: "write", Kind: FaultBitFlip, Path: "protease1_c000_e001_s00.h5l", Byte: 25},
	)
	defer SetDiskFaults(faults)()
	c, err := New(dir, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(context.Background(), c)
	if !errors.Is(err, ErrShardsQuarantined) {
		t.Fatalf("run with exhausted repair budget returned %v, want ErrShardsQuarantined", err)
	}
	if n := faults.Remaining(); n != 0 {
		t.Fatalf("%d faults never fired", n)
	}
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Corruptions != 2 || man.Repairs != 1 {
		t.Fatalf("counters corruptions=%d repairs=%d, want 2 corruptions and only 1 granted repair", man.Corruptions, man.Repairs)
	}
	for _, u := range man.Units {
		if u.ID == "protease1_c000" && u.State != UnitFailed {
			t.Fatalf("budget-exhausted unit is %q, want failed", u.State)
		}
	}
	if man.Finalized {
		t.Fatal("campaign with quarantined shards must not be finalized")
	}
	// Both damaged generations are preserved for post-mortem.
	ents, err := os.ReadDir(QuarantineDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("quarantine holds %d files, want both damaged shards", len(ents))
	}
}
