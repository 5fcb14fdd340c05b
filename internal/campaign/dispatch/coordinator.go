package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/cluster"
)

// Coordinator drives a campaign: it owns the manifest, folds worker
// claims and result acks into it on every pass, expires stale leases
// (reassigning dead workers' in-flight units), and finalizes the
// campaign once every unit is done. It executes no units itself;
// RunLocal pairs it with in-process workers, and workers of other
// processes join through the lease store.
type Coordinator struct {
	// Camp is the coordinator's campaign handle (campaign.New or
	// campaign.Load, which fences the previous run's claims) — the
	// single manifest writer of the run.
	Camp *campaign.Campaign
	// Clock drives lease expiry and the sync cadence. Nil means the
	// system clock.
	Clock campaign.Clock
	// Lease sets the TTL workers are held to. Zero-valued means
	// defaults.
	Lease campaign.LeaseOptions
	// Poll is the sync cadence. Zero means 500ms.
	Poll time.Duration
	// OnSync is an optional per-pass observer (progress printing).
	OnSync func(campaign.SyncReport)

	spans         []cluster.UnitSpan
	reassignments int
}

func (co *Coordinator) clock() campaign.Clock {
	if co.Clock == nil {
		return campaign.SystemClock{}
	}
	return co.Clock
}

func (co *Coordinator) poll() time.Duration {
	if co.Poll > 0 {
		return co.Poll
	}
	return 500 * time.Millisecond
}

// Run syncs until the campaign settles: every unit done → finalize
// and return the campaign result; some units failed with none left
// runnable → an error wrapping campaign.ErrUnitFailed (a scoring job
// spent its retry budget) and/or campaign.ErrShardsQuarantined (a
// unit's shards kept failing verification past its repair budget),
// and a fresh Load grants new budgets; context cancelled →
// campaign.ErrInterrupted, with the manifest holding the resume point.
func (co *Coordinator) Run(ctx context.Context) (*campaign.Result, error) {
	// targetOf maps completed units back to their target for run
	// stats.
	units := co.Camp.Units()
	targetOf := make(map[string]string, len(units))
	for _, u := range units {
		targetOf[u.ID] = u.Target
	}
	for {
		rep, err := co.Camp.SyncDispatch(co.clock().Now(), co.Lease)
		if err != nil {
			return nil, err
		}
		co.reassignments += len(rep.Reassigned)
		for _, rec := range rep.Completed {
			if rec.Err != "" {
				continue
			}
			co.spans = append(co.spans, cluster.UnitSpan{
				Worker: rec.Worker,
				Target: targetOf[rec.Unit],
				Start:  rec.Started,
				End:    rec.Finished,
				Poses:  rec.Poses,
			})
		}
		if co.OnSync != nil {
			co.OnSync(rep)
		}
		if rep.AllDone {
			res, err := co.Camp.Finalize()
			if errors.Is(err, campaign.ErrShardsQuarantined) {
				// Finalize's verification gate caught shards damaged
				// after folding; the units were re-queued, so keep
				// syncing — live workers will re-claim them. (Budget
				// exhaustion parks units failed and the AllSettled
				// branch below reports it.)
				continue
			}
			return res, err
		}
		if rep.AllSettled {
			return nil, settledErr(rep)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w (coordinator stopped)", campaign.ErrInterrupted)
		case <-co.clock().After(co.poll()):
		}
	}
}

// settledErr reports a run that settled with failed units, wrapping
// the budget each of them spent.
func settledErr(rep campaign.SyncReport) error {
	var causes []error
	if rep.Failed > rep.Parked {
		causes = append(causes, campaign.ErrUnitFailed)
	}
	if rep.Parked > 0 {
		causes = append(causes, campaign.ErrShardsQuarantined)
	}
	return fmt.Errorf("dispatch: %d unit(s) failed and no workers can retry them this run; resume to grant a fresh budget: %w",
		rep.Failed, errors.Join(causes...))
}

// RunStats aggregates the completed-unit spans the coordinator
// observed into the real-run counterpart of the cluster simulator's
// PlanResult.
func (co *Coordinator) RunStats() cluster.RunStats {
	return cluster.CollectRun(co.spans, co.reassignments)
}

// RunLocal runs a campaign in this process: the coordinator plus n
// workers from newWorker, run as goroutines. Workers that share the
// coordinator's handle share its featurization caches; workers of
// other processes may join the same campaign through the lease store
// at any time. RunLocal returns once every worker has stopped. When
// the run is interrupted, it folds the acks workers wrote while
// stopping, so the manifest it leaves holds every unit finished.
func RunLocal(ctx context.Context, co *Coordinator, n int, newWorker func(i int) *Worker) (*campaign.Result, error) {
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := newWorker(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(wctx)
		}()
	}
	res, err := co.Run(ctx)
	stopWorkers()
	wg.Wait()
	if errors.Is(err, campaign.ErrInterrupted) {
		if _, serr := co.Camp.SyncDispatch(co.clock().Now(), co.Lease); serr != nil {
			err = errors.Join(err, serr)
		}
	}
	return res, err
}

// WorkerID formats the conventional ID for the i-th worker of a run.
func WorkerID(i int) string { return fmt.Sprintf("w%02d", i+1) }
