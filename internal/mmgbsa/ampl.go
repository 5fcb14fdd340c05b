package mmgbsa

import (
	"fmt"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
)

// AMPL is the ATOM Modeling PipeLine surrogate: a per-target ridge
// regression over ligand descriptors trained to predict MM/GBSA
// scores, used in the paper's retrospective analysis because full
// MM/GBSA on every tested compound was too expensive. The paper cites
// the surrogate as "highly correlated with actual MM/GBSA
// calculations".
type AMPL struct {
	Target *target.Pocket
	w      []float64 // descriptor weights + bias (last)
	fitted bool
}

// NewAMPL creates an untrained surrogate for the given target.
func NewAMPL(t *target.Pocket) *AMPL { return &AMPL{Target: t} }

const amplFeatures = 8

func amplFeaturize(m *chem.Mol) []float64 {
	d := chem.ComputeDescriptors(m)
	return []float64{
		d.MolWeight / 300,
		d.LogP,
		float64(d.HBondDonors),
		float64(d.HBondAcceptors),
		d.TPSA / 50,
		float64(d.RotatableBonds),
		float64(d.Rings),
		float64(d.NetCharge),
	}
}

// Fit trains the surrogate by running the real MM/GBSA rescorer on the
// provided training compounds (posed copies centered in the pocket)
// and solving the ridge-regularized normal equations.
func (a *AMPL) Fit(train []*chem.Mol) error {
	if len(train) < amplFeatures+1 {
		return fmt.Errorf("mmgbsa: AMPL needs at least %d training compounds, got %d", amplFeatures+1, len(train))
	}
	n := len(train)
	dim := amplFeatures + 1
	x := make([][]float64, n)
	y := make([]float64, n)
	for i, m := range train {
		posed := m.Clone()
		a.Target.PlaceLigand(posed)
		feats := amplFeaturize(m)
		x[i] = append(feats, 1) // bias
		y[i] = Rescore(a.Target, posed)
	}
	// Normal equations with ridge lambda.
	const lambda = 1e-2
	ata := make([][]float64, dim)
	atb := make([]float64, dim)
	for i := range ata {
		ata[i] = make([]float64, dim)
		ata[i][i] = lambda
	}
	for s := 0; s < n; s++ {
		for i := 0; i < dim; i++ {
			atb[i] += x[s][i] * y[s]
			for j := 0; j < dim; j++ {
				ata[i][j] += x[s][i] * x[s][j]
			}
		}
	}
	w, err := solveGaussian(ata, atb)
	if err != nil {
		return err
	}
	a.w = w
	a.fitted = true
	return nil
}

// Predict returns the surrogate MM/GBSA score for a compound (pose-
// independent, as AMPL predicts from 2D descriptors). It panics if the
// surrogate is not fitted.
func (a *AMPL) Predict(m *chem.Mol) float64 {
	if !a.fitted {
		panic("mmgbsa: AMPL.Predict before Fit")
	}
	feats := append(amplFeaturize(m), 1)
	s := 0.0
	for i, f := range feats {
		s += a.w[i] * f
	}
	return s
}

// solveGaussian solves the dense linear system A w = b in place with
// partial pivoting.
func solveGaussian(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// pivot
		p := col
		for r := col + 1; r < n; r++ {
			if abs(a[r][col]) > abs(a[p][col]) {
				p = r
			}
		}
		if abs(a[p][col]) < 1e-12 {
			return nil, fmt.Errorf("mmgbsa: singular normal equations at column %d", col)
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	w := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * w[c]
		}
		w[r] = s / a[r][r]
	}
	return w, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
