package cluster

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"deepfusion/internal/mmgbsa"
)

func TestLassenSpec(t *testing.T) {
	m := Lassen()
	if m.Nodes != 792 || m.GPUsPerNode != 4 || m.GPUMemoryGB != 16 {
		t.Fatalf("Lassen spec drifted: %+v", m)
	}
	if m.JobTimeLimit != 12*time.Hour {
		t.Fatal("LSF 12-hour limit drifted")
	}
}

func TestRankRateCalibration(t *testing.T) {
	// A 4-node batch-56 job must evaluate 2M poses in ~280 min.
	spec := DefaultFusionJob()
	rate := RankRate(spec.BatchPerRank) * float64(spec.Ranks())
	evalMin := 2_000_000 / rate / 60
	if math.Abs(evalMin-280) > 10 {
		t.Fatalf("eval time %v min, paper ~280", evalMin)
	}
}

func TestRankRateMonotoneInBatch(t *testing.T) {
	prev := 0.0
	for _, b := range []int{1, 12, 23, 56} {
		r := RankRate(b)
		if r <= prev {
			t.Fatalf("rate not increasing with batch: %v at %d", r, b)
		}
		prev = r
	}
}

func TestBatch56VsBatch12Gap(t *testing.T) {
	// Paper Figure 4: ~10 minute advantage for batch 56 over batch 12
	// on a 4-node job.
	spec := DefaultFusionJob()
	t56 := float64(spec.Poses) / (RankRate(56) * float64(spec.Ranks())) / 60
	t12 := float64(spec.Poses) / (RankRate(12) * float64(spec.Ranks())) / 60
	gap := t12 - t56
	if gap < 4 || gap > 20 {
		t.Fatalf("batch 12->56 gap = %v min, paper ~10", gap)
	}
}

func TestFailureRates(t *testing.T) {
	cases := map[int]float64{1: 0.02, 2: 0.02, 4: 0.03, 8: 0.20}
	for nodes, want := range cases {
		if got := FailureRate(nodes); got != want {
			t.Fatalf("FailureRate(%d) = %v, want %v", nodes, got, want)
		}
	}
}

func TestSimulateFusionJobAnatomy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spec := DefaultFusionJob()
	// Average over several seeds to smooth jitter.
	var startup, eval, output, total float64
	n := 0
	for i := 0; i < 50; i++ {
		j := SimulateFusionJob(spec, rng)
		if j.Failed {
			continue
		}
		startup += j.Startup.Minutes()
		eval += j.Eval.Minutes()
		output += j.Output.Minutes()
		total += j.Total().Minutes()
		n++
	}
	startup /= float64(n)
	eval /= float64(n)
	output /= float64(n)
	total /= float64(n)
	if math.Abs(startup-20) > 2 {
		t.Fatalf("startup %v min, paper 20", startup)
	}
	if math.Abs(eval-280) > 12 {
		t.Fatalf("eval %v min, paper 280", eval)
	}
	if math.Abs(output-6.5) > 1 {
		t.Fatalf("output %v min, paper 6.5", output)
	}
	// Total ~5.1 hours.
	if math.Abs(total/60-5.1) > 0.3 {
		t.Fatalf("total %v h, paper ~5.1", total/60)
	}
}

func TestSingleJobThroughputMatchesTable7(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var pps float64
	n := 0
	for i := 0; i < 60; i++ {
		j := SimulateFusionJob(DefaultFusionJob(), rng)
		if j.Failed {
			continue
		}
		pps += j.PosesPerSecond()
		n++
	}
	pps /= float64(n)
	// Table 7: 108 poses/s for a single job.
	if math.Abs(pps-108) > 8 {
		t.Fatalf("single-job throughput %v poses/s, paper 108", pps)
	}
}

func TestCampaignPeakThroughput(t *testing.T) {
	// Table 7 peak: 125 parallel 4-node jobs on 500 nodes reach
	// ~13,594 poses/s (~48.6M poses/hour, ~4.86M compounds/hour).
	peak := PeakThroughput(125, DefaultFusionJob())
	if math.Abs(peak-13594) > 800 {
		t.Fatalf("peak throughput %v poses/s, paper ~13,594", peak)
	}
	res, err := SimulateCampaign(125, 500, DefaultFusionJob(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// The full campaign (with failure resubmission) is slower than the
	// ideal parallel window but must stay in its vicinity.
	pps := res.PosesPerSecond()
	if pps < 0.5*peak || pps > peak {
		t.Fatalf("campaign throughput %v vs peak %v", pps, peak)
	}
	if res.PeakJobs != 125 {
		t.Fatalf("peak concurrent jobs %d, want 125", res.PeakJobs)
	}
	if res.PosesScored != 125*2_000_000 {
		t.Fatalf("poses scored %d", res.PosesScored)
	}
}

func TestCampaignResubmitsFailures(t *testing.T) {
	// With 8-node jobs (20% failure) failures must appear and be
	// resubmitted so all poses still get scored.
	spec := DefaultFusionJob()
	spec.Nodes = 8
	res, err := SimulateCampaign(60, 500, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resubmissions == 0 {
		t.Fatal("no failures at 20% failure rate over 60 jobs")
	}
	if res.PosesScored != 60*2_000_000 {
		t.Fatalf("failed jobs lost poses: %d", res.PosesScored)
	}
}

func TestCampaignQueuesWhenAllocationSmall(t *testing.T) {
	// 10 four-node jobs on 8 nodes: only 2 run at a time.
	res, err := SimulateCampaign(10, 8, DefaultFusionJob(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakJobs > 2 {
		t.Fatalf("peak jobs %d with an 8-node allocation", res.PeakJobs)
	}
	// Makespan must reflect ~5 sequential waves.
	if res.Makespan < 4*5*time.Hour/2 {
		t.Fatalf("makespan %v implausibly short", res.Makespan)
	}
}

func TestCampaignRejectsOversizedJob(t *testing.T) {
	spec := DefaultFusionJob()
	spec.Nodes = 16
	if _, err := SimulateCampaign(1, 8, spec, 6); err == nil {
		t.Fatal("expected error for job larger than allocation")
	}
}

func TestSchedulerJobCapRespected(t *testing.T) {
	// The paper hit LSF trouble past ~250 concurrent jobs; the
	// simulator caps concurrency at the scheduler comfort zone.
	spec := DefaultFusionJob()
	spec.Nodes = 1
	res, err := SimulateCampaign(400, 792, spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakJobs > schedulerJobCap {
		t.Fatalf("scheduler allowed %d concurrent jobs", res.PeakJobs)
	}
}

func TestFusionSpeedupsVsPhysics(t *testing.T) {
	// Paper Section 4.2: Fusion is ~2.7x faster than Vina and ~403x
	// faster than MM/GBSA per node.
	rng := rand.New(rand.NewSource(8))
	var pps float64
	n := 0
	for i := 0; i < 40; i++ {
		j := SimulateFusionJob(DefaultFusionJob(), rng)
		if !j.Failed {
			pps += j.PosesPerSecond()
			n++
		}
	}
	pps /= float64(n)
	perNode := pps / 4
	vinaSpeedup := perNode / mmgbsa.VinaPosesPerSecPerNode
	gbsaSpeedup := perNode / mmgbsa.MMGBSAPosesPerSecPerNode
	if math.Abs(vinaSpeedup-2.7) > 0.4 {
		t.Fatalf("Vina speedup %v, paper 2.7x", vinaSpeedup)
	}
	if math.Abs(gbsaSpeedup-403) > 60 {
		t.Fatalf("MM/GBSA speedup %v, paper 403x", gbsaSpeedup)
	}
}

func TestStrongScalingShape(t *testing.T) {
	// Figure 4: run time decreases with node count with diminishing
	// returns (fixed startup/output overheads).
	spec := DefaultFusionJob()
	var prevTotal float64 = math.Inf(1)
	var prevGain float64 = math.Inf(1)
	for _, nodes := range []int{1, 2, 4, 8} {
		spec.Nodes = nodes
		rate := RankRate(spec.BatchPerRank) * float64(spec.Ranks())
		total := startupMinutes + float64(spec.Poses)/rate/60 + outputMinutes
		if total >= prevTotal {
			t.Fatalf("no speedup at %d nodes", nodes)
		}
		gain := prevTotal - total
		if gain > prevGain {
			t.Fatalf("scaling gain should diminish: %v then %v", prevGain, gain)
		}
		prevGain = gain
		prevTotal = total
	}
}

func TestTracedCampaignMatchesPlain(t *testing.T) {
	spec := DefaultFusionJob()
	plain, err := SimulateCampaign(12, 500, spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	traced, trace, err := TracedCampaign(12, 500, spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	if traced.PosesScored != plain.PosesScored {
		t.Fatalf("traced campaign diverges: %d vs %d poses", traced.PosesScored, plain.PosesScored)
	}
	if len(trace) != len(traced.Jobs) {
		t.Fatalf("trace entries %d, jobs %d", len(trace), len(traced.Jobs))
	}
	for _, e := range trace {
		if e.End <= e.Start {
			t.Fatalf("job %d: end before start", e.JobID)
		}
	}
}

func TestRenderGantt(t *testing.T) {
	_, trace, err := TracedCampaign(6, 16, DefaultFusionJob(), 10)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderGantt(trace, 60)
	if out == "" {
		t.Fatal("empty gantt")
	}
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines < len(trace) {
		t.Fatalf("gantt rows %d < trace %d", lines, len(trace))
	}
	if RenderGantt(nil, 60) != "" {
		t.Fatal("empty trace must render empty")
	}
}
