package campaign

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// foldCoverage counts what the random fixtures of
// TestSyncDispatchMatchesFullRead exercised, so the property cannot
// hold vacuously.
type foldCoverage struct {
	doneWithFiles, reassigned, quarantined, parked, completed, failedAcks, inFlight int
}

// TestSyncDispatchMatchesFullRead is the fold's property test: on
// random unit grids (pending, in flight, done, failed, reassigned,
// quarantined and re-queued units) over random claim and result files
// (tombstones, zombie acks, stale and fresh heartbeats, unparsable
// records, files of unknown units), syncDispatch — which reads only
// the files of units not done — leaves the same manifest, the same
// changed flag, the same SyncReport field by field and the same
// quarantine as syncDispatchRef, which reads every file.
func TestSyncDispatchMatchesFullRead(t *testing.T) {
	shard := shardFixture(t, filepath.Join(t.TempDir(), "template.h5l"))
	lease := LeaseOptions{TTL: 30 * time.Second}
	var cov foldCoverage
	for seed := int64(0); seed < 300; seed++ {
		gotDir, wantDir := t.TempDir(), t.TempDir()
		gotMan := foldFixture(t, rand.New(rand.NewSource(seed)), gotDir, shard, &cov)
		wantMan := foldFixture(t, rand.New(rand.NewSource(seed)), wantDir, shard, nil)
		now := leaseT0.Add(time.Duration(rand.New(rand.NewSource(-seed)).Intn(120)) * time.Second)

		got, gotChanged, gotErr := syncDispatch(gotDir, gotMan, now, lease)
		want, wantChanged, wantErr := syncDispatchRef(wantDir, wantMan, now, lease)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: error %v, reference %v", seed, gotErr, wantErr)
		}
		if gotChanged != wantChanged {
			t.Errorf("seed %d: changed = %v, reference %v", seed, gotChanged, wantChanged)
		}
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := 0; i < gv.NumField(); i++ {
			if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
				t.Errorf("seed %d: SyncReport.%s = %+v, reference %+v", seed, gv.Type().Field(i).Name, g, w)
			}
		}
		gotJSON, err := marshalJSONRecord(gotMan)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := marshalJSONRecord(wantMan)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("seed %d: manifest differs from the reference fold:\n%s\nreference:\n%s", seed, gotJSON, wantJSON)
		}
		if g, w := dirNames(t, QuarantineDir(gotDir)), dirNames(t, QuarantineDir(wantDir)); !reflect.DeepEqual(g, w) {
			t.Errorf("seed %d: quarantine holds %v, reference %v", seed, g, w)
		}
		if t.Failed() {
			t.FailNow()
		}
		cov.reassigned += len(got.Reassigned)
		cov.quarantined += len(got.Quarantined)
		cov.parked += got.Parked
		cov.completed += len(got.Completed)
		cov.inFlight += got.InFlight
	}
	t.Logf("coverage: %+v", cov)
	if cov.doneWithFiles == 0 || cov.reassigned == 0 || cov.quarantined == 0 || cov.parked == 0 ||
		cov.completed == 0 || cov.failedAcks == 0 || cov.inFlight == 0 {
		t.Fatalf("the random fixtures missed a case: %+v", cov)
	}
}

// foldFixture writes a random campaign directory into dir — manifest,
// claim and result files, and shard files valid, corrupt or missing —
// drawn from rng, and returns its manifest. The same seed writes the
// same directory. cov, when not nil, counts done units that have files
// on disk and failing acks.
func foldFixture(t *testing.T, rng *rand.Rand, dir string, shard []byte, cov *foldCoverage) *Manifest {
	t.Helper()
	for _, d := range []string{claimDirName, resultDirName, shardDirName} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write := func(path string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeJSON := func(path string, v any) {
		t.Helper()
		if rng.Intn(10) == 0 {
			write(path, []byte("{\"unit\": ")) // unparsable
			return
		}
		data, err := marshalJSONRecord(v)
		if err != nil {
			t.Fatal(err)
		}
		write(path, data)
	}
	at := func() time.Time { return leaseT0.Add(time.Duration(rng.Intn(120)) * time.Second) }
	workers := []string{"w1", "w2", "w3"}
	worker := func() string { return workers[rng.Intn(len(workers))] }
	// shardFor names a shard file for (unit, epoch, n) and makes it
	// valid, corrupt or missing.
	shardFor := func(unit string, epoch, n int) string {
		rel := filepath.Join(shardDirName, fmt.Sprintf("%s_e%03d_s%02d.h5l", unit, epoch, n))
		switch rng.Intn(4) {
		case 0, 1:
			write(filepath.Join(dir, rel), shard)
		case 2:
			write(filepath.Join(dir, rel), shard[:len(shard)/2])
		}
		return rel
	}

	man := &Manifest{
		Version:       manifestVersion,
		Name:          "fold-test",
		DeckSize:      12,
		Config:        Config{MaxRepairs: rng.Intn(3)},
		Reassignments: rng.Intn(3),
	}
	if rng.Intn(2) == 0 {
		man.Workers = map[string]*WorkerRecord{}
		for _, id := range workers[:1+rng.Intn(len(workers))] {
			w := &WorkerRecord{ID: id, FirstSeen: at(), LastBeat: at(), UnitsDone: rng.Intn(3)}
			if rng.Intn(2) == 0 {
				w.Leases = []string{"u00"}
			}
			man.Workers[id] = w
		}
	}
	states := []UnitState{UnitPending, UnitInFlight, UnitDone, UnitFailed}
	for i, n := 0, 1+rng.Intn(10); i < n; i++ {
		u := UnitRecord{
			ID:      fmt.Sprintf("u%02d", i),
			Target:  "protease1",
			Chunk:   i,
			Lo:      2 * i,
			Hi:      2*i + 2,
			State:   states[rng.Intn(len(states))],
			Epoch:   rng.Intn(4),
			Repairs: rng.Intn(3),
		}
		switch u.State {
		case UnitInFlight:
			u.Worker = worker()
		case UnitDone:
			u.Worker, u.Poses = worker(), 1+rng.Intn(9)
			u.Shards = []string{shardFor(u.ID, u.Epoch, 9)}
		case UnitFailed:
			u.Worker = worker()
		}
		// Claims and acks at epochs around the unit's: tombstones and
		// zombie acks below it, the live claim or ack at it, and a
		// claim a restarted coordinator has not adopted yet above it.
		files := 0
		for e := 0; e <= u.Epoch+1; e++ {
			if rng.Intn(3) == 0 {
				beat := at()
				writeJSON(claimPath(dir, u.ID, e), ClaimRecord{Unit: u.ID, Epoch: e, Worker: worker(),
					Granted: beat.Add(-time.Duration(rng.Intn(60)) * time.Second), Heartbeat: beat})
				files++
			}
			if rng.Intn(3) == 0 {
				rec := ResultRecord{Unit: u.ID, Epoch: e, Worker: worker(), Poses: rng.Intn(9),
					Skipped: rng.Intn(2), Attempts: 1 + rng.Intn(2), Started: at(), Finished: at()}
				if rng.Intn(4) == 0 {
					rec.Err = "scoring job failed"
					if cov != nil {
						cov.failedAcks++
					}
				} else {
					for s, k := 0, rng.Intn(3); s < k; s++ {
						rec.Shards = append(rec.Shards, shardFor(u.ID, e, s))
					}
				}
				writeJSON(resultPath(dir, u.ID, e), rec)
				files++
			}
		}
		if cov != nil && u.State == UnitDone && files > 0 {
			cov.doneWithFiles++
		}
		man.Units = append(man.Units, u)
	}
	// Files the fold must ignore: a unit the manifest does not know,
	// and names that are not epoch-qualified records.
	writeJSON(claimPath(dir, "ghost", 0), ClaimRecord{Unit: "ghost", Worker: worker(), Granted: at(), Heartbeat: at()})
	writeJSON(resultPath(dir, "ghost", 1), ResultRecord{Unit: "ghost", Epoch: 1, Worker: worker(), Poses: 3})
	write(filepath.Join(dir, claimDirName, "u00.e00000.claim.tmp123"), []byte("{"))
	write(filepath.Join(dir, resultDirName, "stray.json"), []byte("{}"))
	return man
}

// dirNames lists a directory's entry names; a missing directory has
// none.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}
