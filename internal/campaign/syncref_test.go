package campaign

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// syncDispatchRef is the coordinator fold as it was before syncDispatch
// learned to skip the files of done units: it reads and decodes every
// claim and result file on each pass. It is kept only as the reference
// TestSyncDispatchMatchesFullRead checks the fold against.
func syncDispatchRef(dir string, man *Manifest, now time.Time, lease LeaseOptions) (SyncReport, bool, error) {
	lease = lease.withDefaults()
	var rep SyncReport
	claims, err := readClaimFiles(dir, nil)
	if err != nil {
		return rep, false, fmt.Errorf("campaign: read claims: %w", err)
	}
	results, err := readResultFiles(dir, nil)
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
