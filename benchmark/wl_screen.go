package main

import (
	"context"
	"runtime"
	"strconv"
	"time"

	"deepfusion/internal/chem"
	"deepfusion/internal/fusion"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// screenShape is what separates the two bulk-scoring workloads: the
// same screen.RunJob call on the same layers, used differently.
type screenShape struct {
	paper      bool
	batch      int
	compounds  int     // docked at set-up, three poses each
	poses      int     // poses per job
	minRho     float64 // f32-vs-f64 rank fidelity bar
	tracedJobs int
}

func shapeOf(paper, smoke bool) screenShape {
	switch {
	case paper && smoke:
		return screenShape{paper: true, batch: 2, compounds: 1, poses: 3, tracedJobs: 1}
	case paper:
		// 12 poses: one adjacent swap against f64 is Spearman 0.993.
		return screenShape{paper: true, batch: 2, compounds: 4, poses: 12, minRho: 0.99, tracedJobs: 3}
	case smoke:
		return screenShape{batch: 8, compounds: 16, poses: 48, minRho: 0.9, tracedJobs: 1}
	default:
		return screenShape{batch: 8, compounds: 512, poses: 1536, minRho: 0.999, tracedJobs: 5}
	}
}

type screenReady struct {
	f        *fusion.Fusion
	pool     []docked
	poses    []screen.Pose
	opts     screen.JobOptions
	rejected float64
}

// runScreen is screen_repro and screen_paper: closed-loop screen.RunJob
// at f32 over one fixed pre-docked pose set on protease1, P ranks, one
// job at a time for the timed section.
func runScreen(e *env, paper bool) (*outcome, error) {
	ctx := context.Background()
	sh := shapeOf(paper, e.smoke)
	pocket := target.Protease1

	setup := func() (*screenReady, error) {
		root := e.rec.begin("setup", "", -1)
		defer e.rec.end(root)
		r := &screenReady{f: buildModel(paper, e.smoke)}
		rng := newRNG(e.seed, e.workload)
		var tried int
		var err error
		e.rec.timed("dockPool", "", root, func() {
			r.pool, tried, err = dockPool(ctx, rng, sh.compounds, []*target.Pocket{pocket}, e.seed)
		})
		if err != nil {
			return nil, err
		}
		r.rejected = 1 - float64(len(r.pool))/float64(tried)
		r.poses = shuffledPoses(rng, r.pool, pocket.Name, sh.poses)
		r.opts = jobOptions(e.p, sh.batch, screen.PrecisionF32)
		e.rec.timed("PrefeatureFor", "", root, func() {
			r.opts.Prefeature, err = screen.PrefeatureFor([]screen.Scorer{r.f}, pocket, r.opts)
		})
		if err != nil {
			return nil, err
		}
		e.rec.timed("RunJob", "warm-up", root, func() {
			_, err = screen.RunJob(ctx, r.f, pocket, r.poses, r.opts)
		})
		return r, err
	}
	r, setupS, err := medianSetup(e.setupReps(), setup, func(*screenReady) {})
	if err != nil {
		return nil, err
	}

	// Timed section: whole jobs back to back until the time is up. A
	// collection between jobs, outside the clock, starts each job from
	// the same heap, so a job's wall does not depend on its
	// predecessor's garbage.
	var walls []time.Duration
	var jobs [][]screen.Prediction
	out := &outcome{metrics: map[string]float64{}}
	before := readProcStats()
	passStart := time.Now()
	deadline := passStart.Add(time.Duration(e.seconds * float64(time.Second)))
	more := func() bool {
		if e.traced() {
			return len(jobs) < sh.tracedJobs
		}
		return time.Now().Before(deadline)
	}
	for len(jobs) == 0 || more() {
		runtime.GC()
		var preds []screen.Prediction
		d := e.rec.timed("RunJob", jobID(len(jobs)), -1, func() {
			preds, err = screen.RunJob(ctx, r.f, pocket, r.poses, r.opts)
		})
		out.tally.attempted += len(r.poses)
		if err != nil {
			out.tally.problem("job %d: %v", len(jobs), err)
			break
		}
		walls = append(walls, d)
		jobs = append(jobs, preds)
	}
	pass := tracedPass{wall: time.Since(passStart), poses: len(jobs) * len(r.poses), spans: e.rec.count(), before: before, after: readProcStats()}
	if len(jobs) == 0 {
		return out, nil
	}

	// Correctness, after timing: jobs agree with each other and rank
	// the poses as a solo f64 job does.
	_, ref, err := referenceScores(ctx, r.f, pocket, r.poses, sh.batch)
	if err != nil {
		return nil, err
	}
	rho := out.tally.checkF32Jobs(jobs, ref, sh.minRho)

	asc := sorted(durationsMS(walls))
	p50, p95 := percentile(asc, 0.5), percentile(asc, 0.95)
	e.logf("# %s: %d jobs of %d poses, job wall ms p25/p50/p75/p95 %.1f/%.1f/%.1f/%.1f, Spearman vs f64 %.5f",
		e.workload, len(jobs), len(r.poses), percentile(asc, 0.25), p50, percentile(asc, 0.75), p95, rho)
	if !e.traced() {
		out.metrics["setup_s"] = setupS
		out.metrics["poses_per_s"] = float64(len(r.poses)) / (p50 / 1000)
		out.metrics["latency_p50_ms"] = p50
		out.metrics["latency_p95_ms"] = p95
		return out, nil
	}

	e.passMetrics(out.metrics, pass)
	sample := r.poses
	if len(sample) > 8*sh.batch {
		sample = sample[:8*sh.batch]
	}
	mols := make([]*chem.Mol, 0, 8)
	for _, d := range r.pool {
		if len(mols) < cap(mols) {
			mols = append(mols, d.mol)
		}
	}
	return out, e.runProbes(out.metrics, probeEnv{
		f: r.f, opts: r.opts, pocket: pocket, poses: sample, mols: mols, rejected: r.rejected, dockSeed: e.seed,
	})
}

func jobID(i int) string { return "job-" + strconv.Itoa(i) }
