package campaign_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	. "deepfusion/internal/campaign"
)

// completedCampaign runs a tiny campaign to completion and returns
// its directory plus the byte-exact selections for identity checks.
func completedCampaign(t *testing.T) (string, []byte) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := New(dir, tinyConfig(), tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	return dir, selectionBytes(t, dir)
}

func TestFsckCleanCampaign(t *testing.T) {
	dir, _ := completedCampaign(t)
	rep, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck of a healthy campaign found problems: %+v", rep.Problems)
	}
	if rep.UnitsChecked != 6 || rep.ShardsChecked == 0 {
		t.Fatalf("fsck checked %d units / %d shards, want all 6 units", rep.UnitsChecked, rep.ShardsChecked)
	}
}

// TestFsckReportsWithoutRepair pins the read-only contract: every
// class of damage is reported, and nothing on disk or in the manifest
// moves.
func TestFsckReportsWithoutRepair(t *testing.T) {
	dir, _ := completedCampaign(t)
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Damage one shard in place, delete another, plant an orphan shard
	// and a garbage claim file.
	corrupt := filepath.Join(dir, man.Units[0].Shards[0])
	data, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(corrupt, data, 0o666); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, man.Units[1].Shards[0])
	if err := os.Remove(missing); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ShardDir(dir), "stray_e009_s00.h5l"), []byte("zombie residue"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "claims"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "claims", "protease1_c000.e00000.claim"), []byte("{ torn"), 0o666); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, p := range rep.Problems {
		kinds[p.Kind]++
	}
	want := map[string]int{"corrupt-shard": 1, "missing-shard": 1, "orphan-shard": 1, "bad-claim": 1}
	for k, n := range want {
		if kinds[k] != n {
			t.Fatalf("fsck found %d %s problems, want %d (all: %+v)", kinds[k], k, n, rep.Problems)
		}
	}
	if len(rep.Repaired) != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("report-only fsck repaired %v / quarantined %v", rep.Repaired, rep.Quarantined)
	}
	// Nothing moved: the corrupt shard is still in place, the manifest
	// untouched.
	if _, err := os.Stat(corrupt); err != nil {
		t.Fatalf("report-only fsck moved the corrupt shard: %v", err)
	}
	after, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after.Corruptions != 0 || after.Repairs != 0 || !after.Finalized {
		t.Fatalf("report-only fsck mutated the manifest: %+v", after)
	}
}

// TestFsckRepairThenResumeMatchesReference is the offline healing
// round trip: corrupt two shards behind a finalized campaign, repair
// with fsck (quarantine + re-queue + definalize), resume the campaign
// in a fresh process, and end with selections byte-identical to the
// undamaged run.
func TestFsckRepairThenResumeMatchesReference(t *testing.T) {
	dir, wantSel := completedCampaign(t)
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, man.Units[0].Shards[0])
	data, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x80
	if err := os.WriteFile(corrupt, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, man.Units[1].Shards[1])); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repaired) != 2 {
		t.Fatalf("fsck repaired %v, want both damaged units", rep.Repaired)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("fsck quarantined %v, want just the corrupt shard (the missing one has nothing to preserve)", rep.Quarantined)
	}
	if rep.Corruptions != 2 || rep.Repairs != 2 {
		t.Fatalf("fsck counters corruptions=%d repairs=%d, want 2/2", rep.Corruptions, rep.Repairs)
	}

	after, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after.Finalized || after.Selections != nil {
		t.Fatal("repair must clear a finalization built on quarantined shards")
	}
	repaired := 0
	for _, u := range after.Units {
		if u.ID == man.Units[0].ID || u.ID == man.Units[1].ID {
			if u.State != UnitPending || u.Epoch == 0 || u.Repairs != 1 || len(u.Shards) != 0 {
				t.Fatalf("repaired unit %+v, want pending at a fresh epoch with cleared shards", u)
			}
			repaired++
		} else if u.State != UnitDone {
			t.Fatalf("undamaged unit %s state %q changed by repair", u.ID, u.State)
		}
	}
	if repaired != 2 {
		t.Fatalf("found %d repaired units in manifest, want 2", repaired)
	}

	// Resume in a fresh process: only the repaired units re-run, and
	// the final selections match the undamaged reference exactly.
	cr, err := Load(dir, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), cr); err != nil {
		t.Fatal(err)
	}
	if got := selectionBytes(t, dir); !bytes.Equal(got, wantSel) {
		t.Fatal("selections after fsck repair + resume differ from the undamaged run")
	}
	if rep, err := Fsck(dir, false); err != nil {
		t.Fatal(err)
	} else {
		for _, p := range rep.Problems {
			if p.Kind != "orphan-shard" {
				t.Fatalf("post-repair fsck still reports %+v", p)
			}
		}
	}
}
