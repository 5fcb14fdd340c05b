package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestClaimSeesManifestRewrite pins the store's manifest reuse
// against a coordinator rewrite: the Claim after the rewrite never
// leases a unit the new bytes record as done, nor a unit at the epoch
// the new bytes fenced — also when the rewrite keeps the manifest's
// length, as an epoch bump 1 → 2 does.
func TestClaimSeesManifestRewrite(t *testing.T) {
	var units []UnitRecord
	for _, id := range []string{"a", "b", "c", "d"} {
		u := leaseUnit(id)
		u.Epoch = 1
		units = append(units, u)
	}
	dir, man := leaseFixture(t, units...)
	s := NewDispatchStore(dir, NewFakeClock(leaseT0))
	if c, _, err := s.Claim("w1"); err != nil || c.Unit != "a" {
		t.Fatalf("first claim = %+v, %v; want unit a", c, err)
	}

	// The coordinator folds b as done: the next claim skips it.
	man.Units[1].State = UnitDone
	if err := saveManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if c, _, err := s.Claim("w1"); err != nil || c.Unit != "c" {
		t.Fatalf("claim after b was done = %+v, %v; want unit c", c, err)
	}

	// The same with a rewrite of the same length: d done, its poses
	// padding the record to the old length. Nothing is left to claim.
	size := func() int {
		t.Helper()
		data, err := os.ReadFile(manifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	before := size()
	man.Units[3].State, man.Units[3].Poses = UnitDone, 1000
	if err := saveManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if after := size(); after != before {
		t.Fatalf("rewrite is %d bytes, want the old %d", after, before)
	}
	if c, _, err := s.Claim("w2"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("claim after d was done = %+v, %v; want ErrNoWork", c, err)
	}

	// An epoch bump 1 → 2, also the same length: a is free again at
	// the new epoch.
	man.Units[0].Epoch = 2
	if err := saveManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if after := size(); after != before {
		t.Fatalf("epoch-bump rewrite is %d bytes, want the old %d", after, before)
	}
	if c, _, err := s.Claim("w3"); err != nil || c.Unit != "a" || c.Epoch != 2 {
		t.Fatalf("claim after the epoch bump = %+v, %v; want unit a at epoch 2", c, err)
	}
}

// TestHeartbeatFencedRightAfterBump pins that the store's manifest
// reuse never delays a fence: the first Heartbeat (and ack) after the
// coordinator bumps the claim's epoch — a rewrite of the same length —
// returns ErrLeaseLost.
func TestHeartbeatFencedRightAfterBump(t *testing.T) {
	u := leaseUnit("a")
	u.Epoch = 1
	dir, man := leaseFixture(t, u)
	fc := NewFakeClock(leaseT0)
	s := NewDispatchStore(dir, fc)
	claim, _, err := s.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}
	fc.Advance(time.Second)
	if err := s.Heartbeat(claim); err != nil {
		t.Fatalf("heartbeat before the bump = %v, want nil", err)
	}

	man.Units[0].Epoch = 2
	if err := saveManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if err := s.Heartbeat(claim); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("first heartbeat after the bump = %v, want ErrLeaseLost", err)
	}
	if err := s.Complete(claim, UnitOutcome{Poses: 1}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("ack after the bump = %v, want ErrLeaseLost", err)
	}
}

// TestClaimedUnitDoesNotAliasManifest pins that the UnitRecord a Claim
// returns is the caller's own: writing to its Shards leaves the
// store's manifest, and so the next Claim of that unit, unchanged.
func TestClaimedUnitDoesNotAliasManifest(t *testing.T) {
	u := leaseUnit("a")
	u.Shards = []string{"shards/a_s00.h5l", "shards/a_s01.h5l"}
	dir, _ := leaseFixture(t, u)
	s := NewDispatchStore(dir, NewFakeClock(leaseT0))
	c, got, err := s.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}
	got.Shards[0] = "shards/overwritten.h5l"

	// Free the unit again (as if its claim never landed) and re-claim.
	if err := os.Remove(claimPath(dir, c.Unit, c.Epoch)); err != nil {
		t.Fatal(err)
	}
	_, again, err := s.Claim("w2")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again.Shards, u.Shards) {
		t.Fatalf("re-claimed shards = %v, want %v", again.Shards, u.Shards)
	}
}

// TestUnchangedManifestReadsWithoutAllocating pins the cost of the
// store's manifest reuse: reading an unchanged manifest of a
// 1024-unit campaign 100 times allocates less than 64 KiB in total —
// a fraction of one copy of the file, let alone one decode.
func TestUnchangedManifestReadsWithoutAllocating(t *testing.T) {
	dir, _ := leaseFixture(t, benchUnits(1024)...)
	s := NewDispatchStore(dir, nil)
	// The first read decodes; the second grows the buffer the next
	// read lands in.
	for range 2 {
		if _, err := s.manifest(); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 100 {
		if _, err := s.manifest(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("100 reads of an unchanged %d-byte manifest allocated %d bytes, want < 64 KiB", fi.Size(), got)
	}
}

// benchUnits returns n pending units across the four targets, shaped
// like a campaign's unit grid.
func benchUnits(n int) []UnitRecord {
	targets := []string{"protease1", "protease2", "spike1", "spike2"}
	units := make([]UnitRecord, n)
	for i := range units {
		tgt, chunk := targets[i%len(targets)], i/len(targets)
		units[i] = UnitRecord{
			ID:     fmt.Sprintf("%s_c%03d", tgt, chunk),
			Target: tgt,
			Chunk:  chunk,
			Lo:     4 * chunk,
			Hi:     4*chunk + 4,
			State:  UnitPending,
		}
	}
	return units
}

// BenchmarkDispatchClaimAck times the control plane of one unit on a
// 1024-unit campaign over the filesystem store: each op is one Claim
// and one Complete, with a coordinator SyncDispatch every 8 ops. The
// acks name no shards, so the fold verifies none: shard reads are the
// data plane. Once every unit is done the campaign starts over,
// untimed — claim and result files removed, every unit pending — so
// b.N may exceed the grid.
func BenchmarkDispatchClaimAck(b *testing.B) {
	dir := b.TempDir()
	man := &Manifest{Version: manifestVersion, Name: "bench", DeckSize: 4096, Units: benchUnits(1024)}
	if err := saveManifest(dir, man); err != nil {
		b.Fatal(err)
	}
	if err := ensureDispatchDirs(dir); err != nil {
		b.Fatal(err)
	}
	c := newHandle(dir, man, nil, nil)
	s := NewDispatchStore(dir, nil)
	lease := DefaultLeaseOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		claim, _, err := s.Claim("w1")
		if errors.Is(err, ErrNoWork) || errors.Is(err, ErrAllDone) {
			b.StopTimer()
			if _, err := c.SyncDispatch(time.Now(), lease); err != nil {
				b.Fatal(err)
			}
			for _, d := range []string{claimDirName, resultDirName} {
				if err := os.RemoveAll(filepath.Join(dir, d)); err != nil {
					b.Fatal(err)
				}
			}
			if err := ensureDispatchDirs(dir); err != nil {
				b.Fatal(err)
			}
			c.mu.Lock()
			man.Units, man.Workers = benchUnits(len(man.Units)), nil
			err := saveManifest(dir, man)
			c.mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if claim, _, err = s.Claim("w1"); err != nil {
				b.Fatal(err)
			}
		} else if err != nil {
			b.Fatal(err)
		}
		if err := s.Complete(claim, UnitOutcome{Poses: 12, Attempts: 1}); err != nil {
			b.Fatal(err)
		}
		if i%8 == 7 {
			if _, err := c.SyncDispatch(time.Now(), lease); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestSharedStoreConcurrentClaims runs workers through one shared
// store, as RunLocal and the HTTP server do, while a coordinator
// folds their acks and rewrites the manifest under them: every unit
// is claimed by exactly one worker and folded exactly once. Run under
// -race, it also checks the store's manifest swap.
func TestSharedStoreConcurrentClaims(t *testing.T) {
	dir, man := leaseFixture(t, benchUnits(48)...)
	c := newHandle(dir, man, nil, nil)
	s := NewDispatchStore(dir, nil)
	var mu sync.Mutex
	claimedBy := map[string]int{}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for {
				claim, _, err := s.Claim(id)
				if errors.Is(err, ErrAllDone) {
					return
				}
				if errors.Is(err, ErrNoWork) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				claimedBy[claim.Unit]++
				mu.Unlock()
				if err := s.Complete(claim, UnitOutcome{Poses: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	completed := 0
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		rep, err := c.SyncDispatch(time.Now(), LeaseOptions{TTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		completed += len(rep.Completed)
		if rep.AllDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not settle: %+v", rep)
		}
	}
	wg.Wait()
	if completed != len(man.Units) || len(claimedBy) != len(man.Units) {
		t.Fatalf("folded %d acks over %d claimed units, want %d each", completed, len(claimedBy), len(man.Units))
	}
	for unit, n := range claimedBy {
		if n != 1 {
			t.Fatalf("unit %s claimed %d times, want once", unit, n)
		}
	}
}
