package hpo

import (
	"math/rand"
	"sort"
)

// State is the opaque model state a trial carries between perturbation
// intervals (network weights, optimizer moments).
type State interface{}

// Objective trains a trial for one perturbation interval: it receives
// the trial's config and previous state (nil on the first interval)
// and returns the updated state and the validation-set MSE (the
// paper's objective function Q).
type Objective func(cfg Config, prev State, seed int64) (State, float64)

// Trial is one population member.
type Trial struct {
	ID     int
	Config Config
	State  State
	Loss   float64 // latest validation loss
	Frozen bool    // finished trials keep their state
}

// Options configures a PB2 run. The paper initialized PB2 with a
// quantile fraction of 50%, time scale in epochs and a perturbation
// interval of 100 epochs.
type Options struct {
	Population       int
	QuantileFraction float64 // bottom fraction exploits/explores
	Rounds           int     // perturbation intervals
	UCBBeta          float64
	Seed             int64
}

// Result is the outcome of a PB2 run.
type Result struct {
	Best       Trial
	Population []Trial
	// History records (round, trialID, loss) tuples for analysis.
	History []Observation
}

// Observation is one trial evaluation.
type Observation struct {
	Round   int
	TrialID int
	Config  Config
	Loss    float64
}

// Run executes the PB2 loop: random initial population; each round
// every trial trains one perturbation interval; under-performing
// trials (below the quantile fraction) clone a top performer's state
// (exploit) and select new continuous hyper-parameters by maximizing
// the time-varying GP-UCB over reward improvement (explore).
// Categorical hyper-parameters are inherited from the exploited trial
// and resampled with probability 0.25.
func Run(space *Space, obj Objective, o Options) *Result {
	rng := rand.New(rand.NewSource(o.Seed))
	trials := make([]Trial, o.Population)
	for i := range trials {
		trials[i] = Trial{ID: i, Config: space.Sample(rng)}
	}
	res := &Result{}
	// GP training data: (config vector, round) -> loss improvement.
	var gx [][]float64
	var gt, gy []float64
	prevLoss := make([]float64, o.Population)
	for i := range prevLoss {
		prevLoss[i] = -1 // unknown
	}

	for round := 0; round < o.Rounds; round++ {
		for i := range trials {
			st, loss := obj(trials[i].Config, trials[i].State, o.Seed+int64(round*1000+i))
			trials[i].State = st
			trials[i].Loss = loss
			res.History = append(res.History, Observation{Round: round, TrialID: i, Config: trials[i].Config.Clone(), Loss: loss})
			if v := space.vectorize(trials[i].Config); len(v) > 0 {
				improvement := 0.0
				if prevLoss[i] >= 0 {
					improvement = prevLoss[i] - loss
				}
				gx = append(gx, v)
				gt = append(gt, float64(round))
				gy = append(gy, improvement)
			}
			prevLoss[i] = loss
		}
		if round == o.Rounds-1 {
			break
		}
		// Rank: ascending loss (lower is better).
		order := make([]int, len(trials))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return trials[order[a]].Loss < trials[order[b]].Loss })
		nBottom := int(float64(len(trials)) * o.QuantileFraction)
		if nBottom < 1 {
			nBottom = 1
		}
		nTop := len(trials) - nBottom
		if nTop < 1 {
			nTop = 1
		}
		gp := newTVGP()
		fitOK := gp.Fit(gx, gt, gy) == nil
		for bi := len(trials) - nBottom; bi < len(trials); bi++ {
			loser := order[bi]
			winner := order[rng.Intn(nTop)]
			// Exploit: copy state and config.
			trials[loser].State = trials[winner].State
			trials[loser].Config = trials[winner].Config.Clone()
			prevLoss[loser] = trials[winner].Loss
			// Explore: GP-UCB over the continuous subspace.
			base := space.vectorize(trials[loser].Config)
			if len(base) > 0 && fitOK {
				best := base
				bestU := gp.UCB(base, float64(round+1), o.UCBBeta)
				for cand := 0; cand < 32; cand++ {
					v := perturbVec(base, rng)
					if u := gp.UCB(v, float64(round+1), o.UCBBeta); u > bestU {
						best, bestU = v, u
					}
				}
				trials[loser].Config = space.devectorize(trials[loser].Config, best)
			}
			// Categoricals: occasional resample keeps the genetic search
			// moving through the discrete subspace.
			explored := space.Sample(rng)
			for _, p := range space.Params {
				if p.Kind == Uniform || p.Kind == LogUniform {
					continue
				}
				if rng.Float64() < 0.25 {
					if len(p.Strings) > 0 {
						trials[loser].Config.Strs[p.Name] = explored.Strs[p.Name]
					} else {
						trials[loser].Config.Num[p.Name] = explored.Num[p.Name]
					}
				}
			}
		}
	}
	best := trials[0]
	for _, t := range trials[1:] {
		if t.Loss < best.Loss {
			best = t
		}
	}
	res.Best = best
	res.Population = trials
	return res
}

// perturbVec proposes a nearby point in [0,1]^d.
func perturbVec(base []float64, rng *rand.Rand) []float64 {
	v := make([]float64, len(base))
	for i, x := range base {
		n := x + rng.NormFloat64()*0.15
		if n < 0 {
			n = 0
		}
		if n > 1 {
			n = 1
		}
		v[i] = n
	}
	return v
}
