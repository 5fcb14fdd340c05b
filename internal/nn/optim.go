package nn

import "math"

// Optimizer applies gradient updates to a fixed set of parameters. The
// four optimizers offered to the hyper-parameter search in Table 1 are
// implemented: Adam, AdamW, RMSprop and Adadelta.
type Optimizer interface {
	// Step applies one update using the parameters' accumulated
	// gradients and clears them afterwards.
	Step()
}

type adamState struct {
	m, v []float64
}

// Adam implements Kingma & Ba 2014; with DecoupledWD > 0 it becomes
// AdamW (Loshchilov & Hutter 2017).
type Adam struct {
	Params      []*Param
	Rate        float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	DecoupledWD float64

	t     int
	state []adamState
}

// NewAdam constructs an Adam optimizer with standard betas.
func NewAdam(params []*Param, lr float64) *Adam {
	return newAdamLike(params, lr, 0)
}

// NewAdamW constructs an AdamW optimizer with decoupled weight decay wd.
func NewAdamW(params []*Param, lr, wd float64) *Adam {
	return newAdamLike(params, lr, wd)
}

func newAdamLike(params []*Param, lr, wd float64) *Adam {
	a := &Adam{
		Params:      params,
		Rate:        lr,
		Beta1:       0.9,
		Beta2:       0.999,
		Eps:         1e-8,
		DecoupledWD: wd,
		state:       make([]adamState, len(params)),
	}
	for i, p := range params {
		a.state[i] = adamState{m: make([]float64, p.Value.Len()), v: make([]float64, p.Value.Len())}
	}
	return a
}

// Step implements Optimizer.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.Params {
		st := a.state[i]
		p.Update(func(w []float64) {
			for j, g := range p.Grad.Data {
				st.m[j] = a.Beta1*st.m[j] + (1-a.Beta1)*g
				st.v[j] = a.Beta2*st.v[j] + (1-a.Beta2)*g*g
				mh := st.m[j] / bc1
				vh := st.v[j] / bc2
				w[j] -= a.Rate * (mh/(math.Sqrt(vh)+a.Eps) + a.DecoupledWD*w[j])
			}
		})
		p.ZeroGrad()
	}
}

// RMSprop implements the moving-average-of-squared-gradients update
// (Graves 2013 variant without momentum).
type RMSprop struct {
	Params []*Param
	Rate   float64
	Decay  float64
	Eps    float64

	sq [][]float64
}

// NewRMSprop constructs an RMSprop optimizer with decay 0.99.
func NewRMSprop(params []*Param, lr float64) *RMSprop {
	r := &RMSprop{Params: params, Rate: lr, Decay: 0.99, Eps: 1e-8, sq: make([][]float64, len(params))}
	for i, p := range params {
		r.sq[i] = make([]float64, p.Value.Len())
	}
	return r
}

// Step implements Optimizer.
func (r *RMSprop) Step() {
	for i, p := range r.Params {
		sq := r.sq[i]
		p.Update(func(w []float64) {
			for j, g := range p.Grad.Data {
				sq[j] = r.Decay*sq[j] + (1-r.Decay)*g*g
				w[j] -= r.Rate * g / (math.Sqrt(sq[j]) + r.Eps)
			}
		})
		p.ZeroGrad()
	}
}

// Adadelta implements Zeiler's learning-rate-free update (the paper's
// Table 1 cites Duchi et al.'s adaptive-subgradient family).
type Adadelta struct {
	Params []*Param
	Rho    float64
	Eps    float64

	accG, accD [][]float64
}

// NewAdadelta constructs an Adadelta optimizer with rho 0.95.
func NewAdadelta(params []*Param) *Adadelta {
	a := &Adadelta{Params: params, Rho: 0.95, Eps: 1e-6,
		accG: make([][]float64, len(params)), accD: make([][]float64, len(params))}
	for i, p := range params {
		a.accG[i] = make([]float64, p.Value.Len())
		a.accD[i] = make([]float64, p.Value.Len())
	}
	return a
}

// Step implements Optimizer.
func (a *Adadelta) Step() {
	for i, p := range a.Params {
		ag, ad := a.accG[i], a.accD[i]
		p.Update(func(w []float64) {
			for j, g := range p.Grad.Data {
				ag[j] = a.Rho*ag[j] + (1-a.Rho)*g*g
				upd := math.Sqrt(ad[j]+a.Eps) / math.Sqrt(ag[j]+a.Eps) * g
				ad[j] = a.Rho*ad[j] + (1-a.Rho)*upd*upd
				w[j] -= upd
			}
		})
		p.ZeroGrad()
	}
}

// NewOptimizer constructs an optimizer by Table 1 name: "adam", "adamw",
// "rmsprop" or "adadelta".
func NewOptimizer(name string, params []*Param, lr float64) Optimizer {
	switch name {
	case "adam":
		return NewAdam(params, lr)
	case "adamw":
		return NewAdamW(params, lr, 1e-4)
	case "rmsprop":
		return NewRMSprop(params, lr)
	case "adadelta":
		return NewAdadelta(params)
	default:
		panic("nn: unknown optimizer " + name)
	}
}
