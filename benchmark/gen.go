package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"deepfusion/internal/chem"
	"deepfusion/internal/libgen"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// Everything the program under test receives is made here from -seed:
// which compounds, in which pose order, in which requests, at which
// arrival times. The model never depends on the seed.

// posesPerCompound is the docking cap every workload uses (the
// service's and the campaign's default).
const posesPerCompound = 3

// The three open-loop arrival rates of serve_http, in requests per
// second. They were calibrated once, on the commit that added this
// benchmark, at about 25/50/80 % of the request-equivalent throughput
// the closed-loop sat phase reached there (about 940 poses/s, 5.7 poses
// a request: 165 requests/s; see README.md), and are frozen: a later
// change is measured at the same offered load.
const (
	rateLow  = 40
	rateMid  = 80
	rateHigh = 125
)

// latencyLimitMS is the serve_http latency limit on p95: four times
// the engine's 25 ms batching deadline.
const latencyLimitMS = 100.0

// targetMix is the serve_http traffic mix over the four pockets: one
// hot target whose batches fill, cold ones that flush on the deadline.
var targetMix = []struct {
	name  string
	share float64
}{{"protease1", 0.55}, {"protease2", 0.25}, {"spike1", 0.15}, {"spike2", 0.05}}

// newRNG derives a workload's private stream from the run seed, so two
// workloads given the same -seed do not draw the same compounds.
func newRNG(seed int64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewSource(seed*1_000_003 + int64(h.Sum64()>>1)))
}

// docked is one validated compound: it prepares (libgen.MolByID) and
// docks with a full pose set on every pocket it was validated for.
type docked struct {
	id    string
	mol   *chem.Mol
	poses map[string][]screen.Pose // target name -> poses in rank order
}

// randomCompoundID draws uniformly over the four scaled libraries.
func randomCompoundID(rng *rand.Rand) string {
	i := rng.Intn(libgen.TotalSize())
	for _, l := range libgen.All() {
		if i < l.Size {
			return l.ID(i)
		}
		i -= l.Size
	}
	panic("unreachable")
}

// dockPool draws compounds until n of them are valid on every pocket,
// docking with the seed the program under test will use, so bad inputs
// are rejected here and never reach a failure count. It returns the
// pool in draw order and how many candidates it tried.
func dockPool(ctx context.Context, rng *rand.Rand, n int, pockets []*target.Pocket, dockSeed int64) ([]docked, int, error) {
	var pool []docked
	seen := map[string]bool{}
	tried := 0
	for len(pool) < n {
		var cands []docked
		for len(cands) < n-len(pool) {
			id := randomCompoundID(rng)
			if seen[id] {
				continue
			}
			seen[id] = true
			tried++
			m, err := libgen.MolByID(id)
			if err != nil {
				continue
			}
			cands = append(cands, docked{id: id, mol: m, poses: map[string][]screen.Pose{}})
		}
		mols := make([]*chem.Mol, len(cands))
		byID := make(map[string]*docked, len(cands))
		for i := range cands {
			mols[i] = cands[i].mol
			byID[cands[i].id] = &cands[i]
		}
		for _, p := range pockets {
			poses, _, err := screen.DockCompounds(ctx, p, mols, posesPerCompound, dockSeed)
			if err != nil {
				return nil, tried, err
			}
			for _, ps := range poses {
				d := byID[ps.CompoundID]
				d.poses[p.Name] = append(d.poses[p.Name], ps)
			}
		}
		for _, d := range cands {
			ok := true
			for _, p := range pockets {
				ps := d.poses[p.Name]
				// DockCompounds gathers in goroutine-completion order.
				sort.Slice(ps, func(a, b int) bool { return ps[a].PoseRank < ps[b].PoseRank })
				ok = ok && len(ps) == posesPerCompound
			}
			if ok {
				pool = append(pool, d)
			}
		}
	}
	return pool, tried, nil
}

// shuffledPoses flattens a pool's poses on one target and puts them in
// a seeded order, truncated to n.
func shuffledPoses(rng *rand.Rand, pool []docked, targetName string, n int) []screen.Pose {
	var poses []screen.Pose
	for _, d := range pool {
		poses = append(poses, d.poses[targetName]...)
	}
	rng.Shuffle(len(poses), func(i, j int) { poses[i], poses[j] = poses[j], poses[i] })
	if len(poses) > n {
		poses = poses[:n]
	}
	return poses
}

// request is one generated service submission.
type request struct {
	target    string
	compounds []int         // indices into the pool, distinct
	due       time.Duration // offset from the phase start (open loop)
	body      []byte        // the POST /v1/submit JSON
}

// newRequest builds the submission for the given pool compounds.
func newRequest(pool []docked, targetName string, compounds []int, due time.Duration) request {
	ids := make([]string, len(compounds))
	for i, c := range compounds {
		ids[i] = pool[c].id
	}
	body, err := json.Marshal(map[string]any{"target": targetName, "compounds": ids})
	if err != nil {
		panic(fmt.Sprintf("gen: marshal request: %v", err))
	}
	return request{target: targetName, compounds: compounds, due: due, body: body}
}

// fullBatchCompounds is the size of a saturation-phase request: one
// engine batch of compounds.
const fullBatchCompounds = 8

// closedLoopRequest is the i-th saturation-phase request. Targets cycle
// through the traffic mix in exact proportion (every 20 requests hold
// 11/5/3/1 of the four pockets), so how long the phase runs does not
// change the mix it saw.
func closedLoopRequest(rng *rand.Rand, pool []docked, i int) request {
	q, u := (float64(i%20)+0.5)/20, 0.0
	name := ""
	for _, t := range targetMix {
		name = t.name
		if u += t.share; q < u {
			break
		}
	}
	return newRequest(pool, name, rng.Perm(len(pool))[:fullBatchCompounds], 0)
}

// poissonSchedule generates an open-loop phase: a Poisson process at
// the given rate, conditioned on its expected count — rate x dur
// arrivals at independent uniform times — with 1/2/4 compounds per
// request in exact 50/30/20 % proportions and targets in the exact
// traffic mix, both in seeded order. Fixing the counts keeps the
// offered load identical across seeds, which otherwise moves the
// latency tail more than any code change would; the bursts stay.
func poissonSchedule(rng *rand.Rand, pool []docked, rate float64, dur time.Duration) []request {
	n := int(math.Round(rate * dur.Seconds()))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	sizes := make([]int, n)
	targets := make([]string, n)
	for i := range sizes {
		switch q := float64(i) / float64(n); {
		case q < 0.5:
			sizes[i] = 1
		case q < 0.8:
			sizes[i] = 2
		default:
			sizes[i] = 4
		}
		u, q := 0.0, (float64(i)+0.5)/float64(n)
		for _, t := range targetMix {
			targets[i] = t.name
			if u += t.share; q < u {
				break
			}
		}
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	rng.Shuffle(n, func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = newRequest(pool, targets[i], rng.Perm(len(pool))[:sizes[i]], due[i])
	}
	return reqs
}
