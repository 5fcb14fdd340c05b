package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-quantile (0 <= p <= 1) of an ascending
// sample by linear interpolation between order statistics. With few
// samples a high percentile approaches the maximum; every report
// states n beside it.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := p * float64(len(asc)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return asc[lo] + (asc[hi]-asc[lo])*(rank-float64(lo))
}

func median(v []float64) float64 { return percentile(sorted(v), 0.5) }

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the default "exclusive" method),
// so the spread this program reports is the one the acceptance rule
// computes. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	asc := sorted(v)
	ld := len(asc)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// ranks assigns average ranks (ties share the mean of their positions).
func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		mean := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = mean
		}
		i = j + 1
	}
	return r
}

// spearman is the rank correlation of two equally long samples.
func spearman(a, b []float64) float64 {
	ra, rb := ranks(a), ranks(b)
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= float64(len(ra))
	mb /= float64(len(rb))
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// backlogGrowing is the open-loop stability rule: a fixed rate is
// sustainable when the requests in flight at the end of the phase do
// not exceed those at its midpoint by more than one batch.
func backlogGrowing(inflightMid, inflightEnd, batch int) bool {
	return inflightEnd > inflightMid+batch
}
