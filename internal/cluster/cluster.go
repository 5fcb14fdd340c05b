// Package cluster is a discrete-event simulator of the HPC system the
// screening campaign ran on: LLNL's Lassen (792 nodes x 4 V100 GPUs,
// IBM Spectrum LSF with a 12-hour job limit). It reproduces the
// paper's measured job anatomy — ~20 min startup, loader-bound
// evaluation, ~6.5 min parallel file output — the per-node-count job
// failure rates, and the queueing behavior of running 125 four-node
// Fusion jobs on a 500-node allocation. Simulated time is free, so the
// throughput and strong-scaling experiments (Table 7, Figure 4) run at
// full paper scale.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Machine describes a simulated cluster.
type Machine struct {
	Name            string
	Nodes           int
	GPUsPerNode     int
	CPUCoresPerNode int
	MemoryGBPerNode int
	GPUMemoryGB     int
	JobTimeLimit    time.Duration
}

// Lassen returns the paper's system: 792 nodes, each with 44 Power9
// cores, 4 NVIDIA V100 GPUs (16 GB) and 256 GB of memory, under a
// 12-hour LSF run limit.
func Lassen() Machine {
	return Machine{
		Name:            "lassen",
		Nodes:           792,
		GPUsPerNode:     4,
		CPUCoresPerNode: 44,
		MemoryGBPerNode: 256,
		GPUMemoryGB:     16,
		JobTimeLimit:    12 * time.Hour,
	}
}

// FusionJobSpec describes one distributed Fusion scoring job
// (Figure 3): poses divided across nodes, 4 ranks per node (1 GPU, 10
// cores, 64 GB each), 12 parallel data loaders per rank.
type FusionJobSpec struct {
	Poses          int
	Nodes          int
	BatchPerRank   int
	LoadersPerRank int
}

// DefaultFusionJob is the production configuration: 2 million poses on
// 4 nodes with batch size 56.
func DefaultFusionJob() FusionJobSpec {
	return FusionJobSpec{Poses: 2_000_000, Nodes: 4, BatchPerRank: 56, LoadersPerRank: 12}
}

// Ranks returns the number of MPI ranks (one per GPU).
func (s FusionJobSpec) Ranks() int { return s.Nodes * 4 }

// Cost-model constants calibrated to the paper's measurements:
// a 4-node, batch-56 job evaluates 2M poses in ~280 min (7.44
// poses/s/rank) with a fixed ~20 min startup and ~6.5 min output
// phase; batch 12 costs ~10 extra minutes. The GPU is under-utilized
// — evaluation is bound by the 12 parallel data loaders per rank
// (file reading + featurization), which the model reflects by keeping
// the loader ceiling below the GPU's capability at any batch size.
const (
	rankRateCeiling  = 7.51  // poses/s/rank as batch -> infinity
	batchHalfPoint   = 0.555 // batch size at which rate halves
	startupMinutes   = 20.0
	outputMinutes    = 6.5
	gpuPeakRate      = 40.0 // poses/s a V100 could sustain if fed
	schedulerJobCap  = 200  // LSF struggled dispatching >200 concurrent jobs
	dispatchInterval = 2.0  // seconds between LSF job dispatches
)

// RankRate returns the sustained evaluation rate (poses/s) of one rank
// at the given batch size per rank.
func RankRate(batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	r := rankRateCeiling * float64(batch) / (float64(batch) + batchHalfPoint)
	if r > gpuPeakRate {
		r = gpuPeakRate
	}
	return r
}

// FailureRate returns the paper's measured per-job failure probability
// by node count (~2% for 1-2 nodes, ~3% for 4, ~20% for 8, driven by
// Horovod/PyTorch instability on POWER9).
func FailureRate(nodes int) float64 {
	switch {
	case nodes <= 2:
		return 0.02
	case nodes <= 4:
		return 0.03
	default:
		return 0.20
	}
}

// JobResult is the outcome of one simulated Fusion job.
type JobResult struct {
	Spec      FusionJobSpec
	Startup   time.Duration
	Eval      time.Duration
	Output    time.Duration
	Failed    bool
	FailPoint time.Duration // elapsed run time at failure
}

// Total returns the job wall-clock time (time to failure for failed
// jobs).
func (j JobResult) Total() time.Duration {
	if j.Failed {
		return j.FailPoint
	}
	return j.Startup + j.Eval + j.Output
}

// PosesPerSecond returns the end-to-end job throughput (0 for failed
// jobs).
func (j JobResult) PosesPerSecond() float64 {
	if j.Failed {
		return 0
	}
	return float64(j.Spec.Poses) / j.Total().Seconds()
}

// SimulateFusionJob runs one Fusion scoring job through the cost
// model. Jitter models run-to-run variance (< 5 minutes in the
// paper's measurements).
func SimulateFusionJob(spec FusionJobSpec, rng *rand.Rand) JobResult {
	res := JobResult{Spec: spec}
	jitter := func(base float64) float64 {
		return base * (1 + 0.01*rng.NormFloat64())
	}
	res.Startup = minutes(jitter(startupMinutes))
	rate := RankRate(spec.BatchPerRank) * float64(spec.Ranks())
	evalMin := float64(spec.Poses) / rate / 60
	res.Eval = minutes(jitter(evalMin))
	res.Output = minutes(jitter(outputMinutes))
	if rng.Float64() < FailureRate(spec.Nodes) {
		res.Failed = true
		res.FailPoint = minutes(rng.Float64() * (startupMinutes + evalMin))
	}
	return res
}

func minutes(m float64) time.Duration {
	return time.Duration(m * float64(time.Minute))
}

// CampaignResult aggregates a many-job screening campaign.
type CampaignResult struct {
	Jobs          []JobResult
	Resubmissions int
	Makespan      time.Duration
	PosesScored   int
	PeakJobs      int // max concurrently running jobs
}

// PosesPerSecond returns the aggregate campaign throughput.
func (c CampaignResult) PosesPerSecond() float64 {
	if c.Makespan <= 0 {
		return 0
	}
	return float64(c.PosesScored) / c.Makespan.Seconds()
}

// PeakThroughput returns the aggregate poses/s of nJobs identical
// Fusion jobs running fully in parallel — Table 7's "peak performance
// (125 parallel jobs)" view, which excludes failure-resubmission drag.
func PeakThroughput(nJobs int, spec FusionJobSpec) float64 {
	rate := RankRate(spec.BatchPerRank) * float64(spec.Ranks())
	evalSec := float64(spec.Poses) / rate
	totalSec := startupMinutes*60 + evalSec + outputMinutes*60
	return float64(nJobs) * float64(spec.Poses) / totalSec
}

// SimulateCampaign runs nJobs Fusion jobs on an allocation of
// allocNodes nodes using an LSF-style event loop: jobs dispatch while
// nodes are free (throttled past the scheduler's concurrent-job
// comfort zone), failed jobs are resubmitted (the paper's fault-
// tolerant many-small-jobs design: a failed job affects only its own
// 2M poses), and the campaign ends when every pose set has been
// scored.
func SimulateCampaign(nJobs, allocNodes int, spec FusionJobSpec, seed int64) (CampaignResult, error) {
	if spec.Nodes > allocNodes {
		return CampaignResult{}, fmt.Errorf("cluster: job needs %d nodes, allocation has %d", spec.Nodes, allocNodes)
	}
	rng := rand.New(rand.NewSource(seed))
	type running struct {
		end    float64 // seconds
		result JobResult
	}
	var res CampaignResult
	pending := nJobs
	freeNodes := allocNodes
	now := 0.0
	var active []running
	dispatchReady := 0.0
	for pending > 0 || len(active) > 0 {
		// Dispatch while nodes are free.
		for pending > 0 && freeNodes >= spec.Nodes && len(active) < schedulerJobCap {
			if now < dispatchReady {
				break
			}
			jr := SimulateFusionJob(spec, rng)
			active = append(active, running{end: now + jr.Total().Seconds(), result: jr})
			freeNodes -= spec.Nodes
			pending--
			dispatchReady = now + dispatchInterval
			if len(active) > res.PeakJobs {
				res.PeakJobs = len(active)
			}
		}
		if len(active) == 0 {
			now = dispatchReady
			continue
		}
		// Advance to the next completion (or dispatch slot).
		sort.Slice(active, func(a, b int) bool { return active[a].end < active[b].end })
		nextEvent := active[0].end
		if pending > 0 && freeNodes >= spec.Nodes && dispatchReady > now && dispatchReady < nextEvent {
			now = dispatchReady
			continue
		}
		now = nextEvent
		done := active[0]
		active = active[1:]
		freeNodes += spec.Nodes
		res.Jobs = append(res.Jobs, done.result)
		if done.result.Failed {
			pending++ // another job takes its place
			res.Resubmissions++
		} else {
			res.PosesScored += spec.Poses
		}
	}
	res.Makespan = time.Duration(now * float64(time.Second))
	return res, nil
}
