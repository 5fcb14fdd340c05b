// Package metrics implements the regression and classification
// statistics the paper reports: RMSE, MAE, R^2, Pearson and Spearman
// correlation, precision/recall curves, F1 scores and Cohen's kappa.
package metrics

import (
	"errors"
	"math"
	"sort"
)

// ErrLengthMismatch is returned when paired series differ in length.
var ErrLengthMismatch = errors.New("metrics: input series have different lengths")

// RMSE returns the root-mean-squared error between predictions and
// ground truth.
func RMSE(pred, truth []float64) float64 {
	mustPair(pred, truth)
	if len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// MAE returns the mean absolute error.
func MAE(pred, truth []float64) float64 {
	mustPair(pred, truth)
	if len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred))
}

// R2 returns the coefficient of determination of pred against truth.
func R2(pred, truth []float64) float64 {
	mustPair(pred, truth)
	if len(pred) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range truth {
		mean += v
	}
	mean /= float64(len(truth))
	ssRes, ssTot := 0.0, 0.0
	for i := range pred {
		d := truth[i] - pred[i]
		ssRes += d * d
		m := truth[i] - mean
		ssTot += m * m
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// Pearson returns the Pearson correlation coefficient of x and y, or 0
// when either series is constant.
func Pearson(x, y []float64) float64 {
	mustPair(x, y)
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	mx, my := 0.0, 0.0
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of x and y (Pearson on
// fractional ranks, with ties receiving their average rank).
func Spearman(x, y []float64) float64 {
	mustPair(x, y)
	return Pearson(ranks(x), ranks(y))
}

func ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// PRPoint is one precision/recall operating point.
type PRPoint struct {
	Threshold float64
	Precision float64
	Recall    float64
}

// PRCurve sweeps a descending score threshold over (score, label) pairs
// and returns the precision/recall at every distinct score, mirroring
// the curves in Figures 2 and 6 of the paper. Labels are true for the
// positive class.
func PRCurve(scores []float64, labels []bool) []PRPoint {
	if len(scores) != len(labels) {
		panic(ErrLengthMismatch)
	}
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	totalPos := 0
	for _, l := range labels {
		if l {
			totalPos++
		}
	}
	var curve []PRPoint
	tp, fp := 0, 0
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		for k := i; k <= j; k++ {
			if labels[idx[k]] {
				tp++
			} else {
				fp++
			}
		}
		p := PRPoint{Threshold: scores[idx[i]]}
		if tp+fp > 0 {
			p.Precision = float64(tp) / float64(tp+fp)
		}
		if totalPos > 0 {
			p.Recall = float64(tp) / float64(totalPos)
		}
		curve = append(curve, p)
		i = j + 1
	}
	return curve
}

// BestF1 returns the maximum F1 score over the PR curve along with the
// threshold achieving it.
func BestF1(scores []float64, labels []bool) (f1, threshold float64) {
	for _, p := range PRCurve(scores, labels) {
		if p.Precision+p.Recall == 0 {
			continue
		}
		f := 2 * p.Precision * p.Recall / (p.Precision + p.Recall)
		if f > f1 {
			f1, threshold = f, p.Threshold
		}
	}
	return f1, threshold
}

// CohenKappa returns Cohen's kappa statistic for binary predictions
// against labels: agreement beyond chance. A random classifier scores
// ~0 (Equation 2 of the paper).
func CohenKappa(pred, labels []bool) float64 {
	if len(pred) != len(labels) {
		panic(ErrLengthMismatch)
	}
	n := float64(len(pred))
	if n == 0 {
		return 0
	}
	var tp, tn, fp, fn float64
	for i := range pred {
		switch {
		case pred[i] && labels[i]:
			tp++
		case pred[i] && !labels[i]:
			fp++
		case !pred[i] && labels[i]:
			fn++
		default:
			tn++
		}
	}
	po := (tp + tn) / n
	pyes := (tp + fp) / n * (tp + fn) / n
	pno := (tn + fn) / n * (tn + fp) / n
	pe := pyes + pno
	if pe == 1 {
		return 0
	}
	return (po - pe) / (1 - pe)
}

// PositiveRate returns the fraction of true labels — the precision of a
// random classifier, drawn as the dashed baseline in Figures 2 and 6.
func PositiveRate(labels []bool) float64 {
	if len(labels) == 0 {
		return 0
	}
	n := 0
	for _, l := range labels {
		if l {
			n++
		}
	}
	return float64(n) / float64(len(labels))
}

func mustPair(a, b []float64) {
	if len(a) != len(b) {
		panic(ErrLengthMismatch)
	}
}
