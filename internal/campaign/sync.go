package campaign

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// SyncReport summarizes one coordinator pass over the claim and
// result files.
type SyncReport struct {
	Done     int
	Failed   int
	InFlight int
	Pending  int
	// Parked counts the failed units whose last ack carried no error:
	// their shards failed verification after their repair budget ran
	// out. The rest of Failed spent their scoring job's retry budget.
	Parked int
	// Reassigned lists units whose lease expired this pass; each was
	// fenced (epoch bumped) and returned to pending.
	Reassigned []string
	// Quarantined lists units whose acked shards failed integrity
	// verification this pass: the damaged files were moved to
	// quarantine/ and the unit was re-queued at a fresh epoch (or
	// parked failed once its repair budget ran out — those appear in
	// Failed, not here).
	Quarantined []string
	// Completed holds the result records folded into the manifest
	// this pass — the coordinator's feed for real-run statistics.
	Completed []ResultRecord
	// AllDone: every unit is done (the campaign can finalize).
	AllDone bool
	// AllSettled: every unit is done or failed (nothing left for
	// workers; a failed campaign needs a fresh run to retry).
	AllSettled bool
}

// syncDispatch folds the store's claim and result files into the
// manifest's unit grid, in memory:
//
//   - A unit's authoritative epoch is the largest of its manifest
//     epoch and any claim/result file epoch on disk (a restarted
//     coordinator adopts the claims a previous incarnation granted).
//   - A result record at the unit's current epoch retires the unit
//     (done, or failed when the record carries an error). Records at
//     older epochs are zombie acks and are ignored — the epoch fence.
//   - A claim at the current epoch keeps the unit in-flight while its
//     heartbeat is fresher than the lease TTL; once the heartbeat
//     goes stale the unit's epoch is bumped (fencing the dead
//     worker's claim file into a tombstone) and the unit returns to
//     pending for the next claimer. The bump target is one past the
//     largest epoch observed on disk, so the fresh epoch's claim file
//     cannot already exist.
//   - Worker liveness (last heartbeat, held leases, units/poses
//     completed) is folded into the manifest's worker table.
//
// Only the claim and result files of units not yet done are read: the
// fold counts a done unit without looking at its records.
//
// Returns the report and whether the manifest changed.
func syncDispatch(dir string, man *Manifest, now time.Time, lease LeaseOptions) (SyncReport, bool, error) {
	lease = lease.withDefaults()
	var rep SyncReport
	open := make(map[string]bool, len(man.Units))
	for i := range man.Units {
		if man.Units[i].State != UnitDone {
			open[man.Units[i].ID] = true
		}
	}
	keep := func(unit string) bool { return open[unit] }
	claims, err := readClaimFiles(dir, keep)
	if err != nil {
		return rep, false, fmt.Errorf("campaign: read claims: %w", err)
	}
	results, err := readResultFiles(dir, keep)
	if err != nil {
		return rep, false, fmt.Errorf("campaign: read results: %w", err)
	}
	changed := false
	workerFor := func(id string, seen time.Time) *WorkerRecord {
		if man.Workers == nil {
			man.Workers = map[string]*WorkerRecord{}
		}
		w, ok := man.Workers[id]
		if !ok {
			w = &WorkerRecord{ID: id, FirstSeen: seen, LastBeat: seen}
			man.Workers[id] = w
			changed = true
		}
		return w
	}
	// Leases are recomputed from live claims every pass, then compared
	// against the manifest's worker table so an unchanged lease set
	// doesn't force a manifest rewrite.
	leases := map[string][]string{}
	for i := range man.Units {
		u := &man.Units[i]
		switch u.State {
		case UnitDone:
			rep.Done++
			continue
		case UnitFailed:
			rep.Failed++
			if results[u.ID][u.Epoch].Err == "" {
				rep.Parked++
			}
			continue
		}
		e := diskEpoch(u, claims, results)
		if e != u.Epoch {
			u.Epoch = e
			changed = true
		}
		if rec, ok := results[u.ID][e]; ok {
			u.Attempts += rec.Attempts
			u.Worker = rec.Worker
			w := workerFor(rec.Worker, rec.Started)
			if rec.Finished.After(w.LastBeat) {
				w.LastBeat = rec.Finished
			}
			if rec.Err != "" {
				u.State = UnitFailed
				rep.Failed++
			} else if probs := verifyShards(dir, u.ID, rec.Shards); len(probs) > 0 {
				// The ack names shards that are corrupt or missing on
				// disk — a torn write the writer never saw, at-rest
				// decay, or an upload that lied. The unit is NOT done:
				// quarantine the damage and re-queue at a fresh epoch
				// (past everything on disk, so the stale ack can never
				// re-fold), under the unit's repair budget. The poses
				// are counted zero times now and exactly once when the
				// re-run's verified shards fold.
				requeued, qerr := quarantineAndRequeue(dir, man, u, probs, e+1)
				if qerr != nil {
					return rep, changed, qerr
				}
				if requeued {
					rep.Quarantined = append(rep.Quarantined, u.ID)
					rep.Pending++
				} else {
					rep.Failed++
					rep.Parked++
				}
				changed = true
				continue
			} else {
				u.State = UnitDone
				u.Poses = rec.Poses
				u.Skipped = rec.Skipped
				u.Shards = rec.Shards
				w.UnitsDone++
				w.PosesDone += rec.Poses
				rep.Done++
			}
			rep.Completed = append(rep.Completed, rec)
			changed = true
			continue
		}
		if cl, ok := claims[u.ID][e]; ok {
			w := workerFor(cl.Worker, cl.Granted)
			if cl.Granted.Before(w.FirstSeen) {
				w.FirstSeen = cl.Granted
				changed = true
			}
			if cl.Heartbeat.After(w.LastBeat) {
				w.LastBeat = cl.Heartbeat
				changed = true
			}
			if now.Sub(cl.Heartbeat) > lease.TTL {
				// Lease expired: fence the claim and reassign. e is
				// the largest epoch on disk for this unit, so e+1 is
				// guaranteed unclaimed.
				u.Epoch = e + 1
				u.State = UnitPending
				u.Worker = ""
				man.Reassignments++
				rep.Reassigned = append(rep.Reassigned, u.ID)
				rep.Pending++
				changed = true
				continue
			}
			leases[cl.Worker] = append(leases[cl.Worker], u.ID)
			if u.State != UnitInFlight || u.Worker != cl.Worker {
				u.State = UnitInFlight
				u.Worker = cl.Worker
				changed = true
			}
			rep.InFlight++
			continue
		}
		if u.State != UnitPending {
			u.State = UnitPending
			changed = true
		}
		rep.Pending++
	}
	for id, w := range man.Workers {
		held := leases[id]
		sort.Strings(held)
		if !slices.Equal(w.Leases, held) {
			w.Leases = held
			changed = true
		}
	}
	total := len(man.Units)
	rep.AllDone = rep.Done == total
	rep.AllSettled = rep.Done+rep.Failed == total
	return rep, changed, nil
}

// SyncDispatch runs one coordinator pass: fold claims and results
// into the manifest, expire stale leases, and persist the manifest if
// anything changed. The coordinator is the only manifest writer, so
// workers always read a consistent view.
func (c *Campaign) SyncDispatch(now time.Time, lease LeaseOptions) (SyncReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, changed, err := syncDispatch(c.dir, c.man, now, lease)
	if err != nil {
		return rep, err
	}
	if changed {
		if err := saveManifest(c.dir, c.man); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// fenceForRun readies a manifest Load opened for a new run; it is the
// one place that decides what a run may execute. It first folds the
// claim and result files on disk into the manifest, at the zero time
// so that no lease expires — a unit acked before the previous run
// stopped is done, not re-run. It then returns every unit that is in
// flight, failed, or done with missing shards to pending, at an epoch
// past every claim and result file on disk:
//
//   - the dead run's claims are fenced at once, instead of holding
//     their units for a lease TTL;
//   - failed units get a fresh retry budget;
//   - lost shards are reproduced rather than silently dropped.
//
// A live worker of another process that outlived the previous
// coordinator is fenced too: its ack lands at the old epoch and is
// ignored, and it claims again — the epoch fence keeps every unit
// counted exactly once.
func fenceForRun(dir string, man *Manifest) error {
	if err := ensureDispatchDirs(dir); err != nil {
		return err
	}
	_, changed, err := syncDispatch(dir, man, time.Time{}, LeaseOptions{})
	if err != nil {
		return err
	}
	claims, err := readClaimFiles(dir, nil)
	if err != nil {
		return err
	}
	results, err := readResultFiles(dir, nil)
	if err != nil {
		return err
	}
	for i := range man.Units {
		u := &man.Units[i]
		switch {
		case u.State == UnitInFlight, u.State == UnitFailed:
		case u.State == UnitDone && !shardsExist(dir, u.Shards):
		default:
			continue
		}
		u.Epoch = diskEpoch(u, claims, results) + 1
		u.State = UnitPending
		u.Worker = ""
		u.Shards = nil
		changed = true
	}
	// Every claim is fenced now, so no worker holds a lease.
	for _, w := range man.Workers {
		if w.Leases != nil {
			w.Leases = nil
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return saveManifest(dir, man)
}

// diskEpoch returns the largest of the unit's manifest epoch and the
// epochs of its claim and result files on disk.
func diskEpoch(u *UnitRecord, claims map[string]map[int]ClaimRecord, results map[string]map[int]ResultRecord) int {
	return max(u.Epoch, maxEpoch(claims[u.ID]), maxEpoch(results[u.ID]))
}
