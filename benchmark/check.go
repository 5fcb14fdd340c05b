package main

import (
	"context"
	"fmt"

	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// tally is a workload's failure accounting: operations attempted and
// failed during the timed section, plus correctness problems found
// afterwards. Any problem makes the run incorrect; checking happens
// after timing and is part of no metric.
type tally struct {
	attempted int
	failed    int
	problems  []string
}

func (t *tally) problem(format string, args ...any) {
	// A broken run can mis-score thousands of poses; the first few name
	// the fault.
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
	t.failed++
}

func (t *tally) correct() bool { return len(t.problems) == 0 && t.failed == 0 }

// poseKey identifies one scored pose across code paths.
type poseKey struct {
	target, compound string
	rank             int
}

func keyOf(p screen.Prediction) poseKey { return poseKey{p.Target, p.CompoundID, p.PoseRank} }

// referenceScores is the oracle every f64 output is held to: a solo
// screen.RunJob at f64 over the same poses, one rank, one loader.
func referenceScores(ctx context.Context, s screen.Scorer, p *target.Pocket, poses []screen.Pose, batch int) (map[poseKey]screen.Prediction, []screen.Prediction, error) {
	o := screen.DefaultJobOptions()
	o.Ranks, o.LoadersPerRank, o.BatchSize = 1, 1, batch
	o.Precision = screen.PrecisionF64
	preds, err := screen.RunJob(ctx, s, p, poses, o)
	if err != nil {
		return nil, nil, err
	}
	ref := make(map[poseKey]screen.Prediction, len(preds))
	for _, pr := range preds {
		ref[keyOf(pr)] = pr
	}
	return ref, preds, nil
}

// checkExact holds f64 outputs to the reference bit for bit: the
// fusion score and the Vina score carried beside it.
func (t *tally) checkExact(what string, got []screen.Prediction, ref map[poseKey]screen.Prediction) {
	for _, g := range got {
		want, ok := ref[keyOf(g)]
		switch {
		case !ok:
			t.problem("%s: pose %v has no reference", what, keyOf(g))
		case g.Fusion != want.Fusion || g.Vina != want.Vina:
			t.problem("%s: pose %v scored %v (vina %v), reference %v (vina %v)", what, keyOf(g), g.Fusion, g.Vina, want.Fusion, want.Vina)
		}
	}
}

// checkF32Jobs holds the f32 fast path to its contract: every timed
// job returned the same scores for the same poses, in pose order, and
// those scores rank the poses as the f64 reference does.
func (t *tally) checkF32Jobs(jobs [][]screen.Prediction, ref []screen.Prediction, minSpearman float64) float64 {
	first := jobs[0]
	if len(first) != len(ref) {
		t.problem("job returned %d predictions for %d poses", len(first), len(ref))
		return 0
	}
	for j, job := range jobs[1:] {
		for i := range job {
			if keyOf(job[i]) != keyOf(first[i]) || job[i].Fusion != first[i].Fusion || job[i].Vina != first[i].Vina || job[i].MMGBSA != first[i].MMGBSA {
				t.problem("job %d pose %d differs from job 0: %v vs %v", j+1, i, job[i].Fusion, first[i].Fusion)
				break
			}
		}
	}
	a := make([]float64, len(ref))
	b := make([]float64, len(ref))
	for i := range ref {
		if keyOf(first[i]) != keyOf(ref[i]) {
			t.problem("pose %d is %v, reference has %v", i, keyOf(first[i]), keyOf(ref[i]))
			return 0
		}
		a[i], b[i] = first[i].Fusion, ref[i].Fusion
	}
	rho := spearman(a, b)
	if rho < minSpearman {
		t.problem("f32 scores rank poses with Spearman %.5f against f64, below %.3f", rho, minSpearman)
	}
	return rho
}
