package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/campaign/dispatch"
	"deepfusion/internal/chem"
	"deepfusion/internal/fusion"
	"deepfusion/internal/h5lite"
	"deepfusion/internal/libgen"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// campaignFullSeconds is the -seconds at which campaign_units runs its
// full deck. The campaign is a fixed amount of work, not a timed loop:
// a faster commit finishes the same 1024 units sooner. A shorter
// -seconds shrinks the deck in proportion, for quick looks only.
const campaignFullSeconds = 20

const (
	campaignCompounds = 1024
	campaignChunk     = 4
	coordinatorPoll   = 100 * time.Millisecond
	workerPoll        = 50 * time.Millisecond
)

type campaignReady struct {
	f    *fusion.Fusion
	camp *campaign.Campaign
	cfg  campaign.Config
	warm []docked // the warm-up compounds, reused by the probes
}

// syncObserver is the Coordinator.OnSync adapter: it counts coordinator
// passes, notes when each ended, and keeps every folded result record —
// whose Started/Finished stamps are the unit's claim-to-ack turnaround.
type syncObserver struct {
	mu      sync.Mutex
	at      []time.Time
	records []campaign.ResultRecord
}

func (s *syncObserver) onSync(rep campaign.SyncReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.at = append(s.at, time.Now())
	s.records = append(s.records, rep.Completed...)
}

// runCampaign is campaign_units: a distributed campaign run in one
// process (dispatch.RunLocal) over the filesystem lease store — 4
// targets x 1024 compounds in chunks of 4 is 1024 units of about 12
// poses, f64, P workers of one rank each.
func runCampaign(e *env) (*outcome, error) {
	ctx := context.Background()
	compounds := campaignCompounds
	if e.smoke {
		compounds = 8
	} else if e.seconds < campaignFullSeconds {
		compounds = int(math.Max(16, campaignCompounds*e.seconds/campaignFullSeconds)) / campaignChunk * campaignChunk
	}
	setup := func() (*campaignReady, error) {
		root := e.rec.begin("setup", "", -1)
		defer e.rec.end(root)
		r := &campaignReady{f: buildModel(false, false)}
		cfg := campaign.DefaultConfig()
		cfg.Compounds, cfg.ChunkSize, cfg.MaxPoses = compounds, campaignChunk, posesPerCompound
		cfg.Workers = e.p
		cfg.Job = jobOptions(1, 8, "") // the default precision, f64
		cfg.Seed = e.seed
		r.cfg = cfg
		dir, err := os.MkdirTemp(e.dir, "campaign-")
		if err != nil {
			return nil, err
		}
		e.rec.timed("campaign.New", "", root, func() {
			r.camp, err = campaign.New(dir, cfg, []screen.Scorer{r.f})
		})
		if err != nil {
			return nil, err
		}
		// Warm-up: one small job per target, so the first units do not
		// pay for a cold heap.
		rng := newRNG(e.seed, e.workload)
		e.rec.timed("dockPool", "", root, func() {
			r.warm, _, err = dockPool(ctx, rng, 4, target.All(), e.seed)
		})
		if err != nil {
			return nil, err
		}
		for _, p := range target.All() {
			e.rec.timed("RunJob", "warm-up", root, func() {
				_, err = screen.RunJob(ctx, r.f, p, shuffledPoses(rng, r.warm, p.Name, 12), cfg.Job)
			})
			if err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	r, setupS, err := medianSetup(e.setupReps(), setup, func(old *campaignReady) { os.RemoveAll(old.camp.Dir()) })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.camp.Dir())

	// The run. The untraced run hands workers the store itself; the
	// traced run hands them the timing decorator and listens to their
	// lifecycle events.
	obs := &syncObserver{}
	co := &dispatch.Coordinator{Camp: r.camp, Poll: coordinatorPoll, OnSync: obs.onSync}
	var tracer *unitTracer
	var store campaign.Dispatcher = campaign.NewDispatchStore(r.camp.Dir(), nil)
	if e.traced() {
		tracer = newUnitTracer(store, e.rec)
		store = tracer
	}
	newWorker := func(i int) *dispatch.Worker {
		w := &dispatch.Worker{ID: dispatch.WorkerID(i), Camp: r.camp, Store: store, Poll: workerPoll}
		if tracer != nil {
			w.OnEvent = tracer.onEvent
		}
		return w
	}
	out := &outcome{metrics: map[string]float64{}}
	before := readProcStats()
	var runErr error
	makespan := e.rec.timed("RunLocal", "", -1, func() {
		_, runErr = dispatch.RunLocal(ctx, co, e.p, newWorker)
	})
	after, spans := readProcStats(), e.rec.count()
	if runErr != nil {
		return nil, fmt.Errorf("RunLocal: %w", runErr)
	}

	// Outcome and correctness, after timing.
	var st campaign.Status
	statusD := e.rec.timed("ReadStatus", "", -1, func() { st, err = campaign.ReadStatus(r.camp.Dir()) })
	if err != nil {
		return nil, err
	}
	units := r.camp.Units()
	out.tally.attempted = len(units)
	if st.Done != len(units) || !st.Finalized {
		out.tally.problem("campaign settled with %d/%d units done, finalized=%v", st.Done, len(units), st.Finalized)
	}
	if st.Reassignments != 0 || st.Corruptions != 0 {
		out.tally.problem("campaign saw %d reassignments and %d corruptions", st.Reassignments, st.Corruptions)
	}
	if err := checkCampaignShards(ctx, &out.tally, r, units, newRNG(e.seed, "campaign-check")); err != nil {
		return nil, err
	}

	var turnaround []float64
	for _, rec := range obs.records {
		turnaround = append(turnaround, ms(rec.Finished.Sub(rec.Started)))
	}
	asc := sorted(turnaround)
	p50, p95 := percentile(asc, 0.5), percentile(asc, 0.95)
	e.logf("# %s: %d units, %d poses, makespan %.3f s, unit claim-to-ack ms p50/p95 %.1f/%.1f (n=%d)",
		e.workload, len(units), st.Poses, makespan.Seconds(), p50, p95, len(asc))
	if !e.traced() {
		out.metrics["setup_s"] = setupS
		out.metrics["poses_per_s"] = float64(st.Poses) / makespan.Seconds()
		out.metrics["latency_p50_ms"] = p50
		out.metrics["latency_p95_ms"] = p95
		return out, nil
	}

	// Control-plane metrics, as shares of what the run had to spend:
	// P workers for the makespan, or the coordinator for the makespan.
	m := out.metrics
	workerTime := float64(e.p) * makespan.Seconds()
	var claimS, leasedS, ackS, execS float64
	var leased []float64
	for _, c := range tracer.claims {
		claimS += c.dur.Seconds()
		if c.leased {
			leasedS += c.dur.Seconds()
			leased = append(leased, ms(c.dur))
		}
	}
	for _, d := range tracer.completes {
		ackS += d.Seconds()
	}
	for _, d := range tracer.executes {
		execS += d.Seconds()
	}
	tenth := len(leased) / 10
	if tenth < 1 {
		tenth = 1
	}
	m["campaign.units"] = float64(len(units))
	m["campaign.worker_busy_share"] = (leasedS + execS + ackS) / workerTime
	m["campaign.control_share"] = 1 - execS/workerTime
	m["campaign.claim_share"] = claimS / workerTime
	m["campaign.claim_growth"] = median(leased[len(leased)-tenth:]) / median(leased[:tenth])
	m["campaign.ack_share"] = ackS / workerTime
	m["campaign.heartbeats"] = float64(tracer.heartbeats)
	m["campaign.syncs"] = float64(len(obs.at))
	// A pass ends, the coordinator sleeps one poll, the next pass runs:
	// what the gap between two pass ends exceeds the poll by is the pass.
	var syncS float64
	for i := 1; i < len(obs.at); i++ {
		if over := obs.at[i].Sub(obs.at[i-1]) - coordinatorPoll; over > 0 {
			syncS += over.Seconds()
		}
	}
	m["campaign.sync_share"] = syncS / makespan.Seconds()
	syncD := e.rec.timed("SyncDispatch", "settled", -1, func() {
		_, err = r.camp.SyncDispatch(time.Now(), campaign.LeaseOptions{})
	})
	if err != nil {
		return nil, err
	}
	finalizeD := e.rec.timed("Finalize", "settled", -1, func() { _, err = r.camp.Finalize() })
	if err != nil {
		return nil, err
	}
	m["campaign.finalize_share"] = finalizeD.Seconds() / makespan.Seconds()
	if fi, err := os.Stat(campaign.ManifestPath(r.camp.Dir())); err == nil {
		m["campaign.manifest_bytes"] = float64(fi.Size())
	}
	m["campaign.reassignments"] = float64(st.Reassignments)
	m["campaign.corruptions"] = float64(st.Corruptions)
	lasc := sorted(leased)
	e.logf("# %s control plane, ms: claim p50/p95 %.2f/%.2f, complete p50 %.2f, execute-unit p50 %.1f, settled sync %.1f, second finalize %.1f, read status %.1f",
		e.workload, percentile(lasc, 0.5), percentile(lasc, 0.95), median(durationsMS(tracer.completes)),
		median(durationsMS(tracer.executes)), ms(syncD), ms(finalizeD), ms(statusD))

	e.passMetrics(m, tracedPass{wall: makespan, poses: st.Poses, spans: spans, before: before, after: after})
	mols := make([]*chem.Mol, len(r.warm))
	for i, d := range r.warm {
		mols[i] = d.mol
	}
	return out, e.runProbes(m, probeEnv{
		f: r.f, opts: jobOptions(e.p, 8, screen.PrecisionF64), pocket: target.Protease1,
		poses: shuffledPoses(newRNG(e.seed, "campaign-probe"), r.warm, "protease1", 12), mols: mols, dockSeed: e.seed,
	})
}

// checkCampaignShards reads back the shards of a few sampled units and
// holds every pose in them to a solo f64 RunJob of the same pose. The
// poses are rebuilt as the campaign builds them: the compound by
// library ID, docked with the unit's seed (campaign seed plus a stable
// hash of the unit ID), which pins the campaign's determinism contract.
func checkCampaignShards(ctx context.Context, t *tally, r *campaignReady, units []campaign.UnitRecord, rng *rand.Rand) error {
	const sampled = 6 // x 4 compounds x 3 poses = 72 poses
	for i := 0; i < sampled && i < len(units); i++ {
		u := units[rng.Intn(len(units))]
		var got []screen.Prediction
		for _, rel := range u.Shards {
			f, err := campaign.ReadShardFile(filepath.Join(r.camp.Dir(), rel))
			if err != nil {
				t.problem("unit %s: %v", u.ID, err)
				continue
			}
			preds, err := screen.ReadShards([]*h5lite.File{f})
			if err != nil {
				t.problem("unit %s: %v", u.ID, err)
				continue
			}
			got = append(got, preds...)
		}
		if len(got) != u.Poses {
			t.problem("unit %s: shards hold %d poses, manifest says %d", u.ID, len(got), u.Poses)
		}
		seen := map[string]bool{}
		var mols []*chem.Mol
		for _, g := range got {
			if seen[g.CompoundID] {
				continue
			}
			seen[g.CompoundID] = true
			m, err := libgen.MolByID(g.CompoundID)
			if err != nil {
				return fmt.Errorf("unit %s: %w", u.ID, err)
			}
			mols = append(mols, m)
		}
		pocket := target.ByName(u.Target)
		unitSeed := r.cfg.Seed + int64(screen.ShardOf(u.ID, 1<<20))*7919
		poses, _, err := screen.DockCompounds(ctx, pocket, mols, r.cfg.MaxPoses, unitSeed)
		if err != nil {
			return err
		}
		ref, _, err := referenceScores(ctx, r.f, pocket, poses, r.cfg.Job.BatchSize)
		if err != nil {
			return err
		}
		t.checkExact("unit "+u.ID, got, ref)
	}
	return nil
}
