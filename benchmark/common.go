package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/screen"
)

// env is one (workload, trace mode) run's fixed conditions.
type env struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed section
	smoke    bool    // tiny inputs, for the tests
	p        int     // min(nproc, 4): GOMAXPROCS, ranks, workers, client connections
	rec      *recorder
	dir      string // scratch directory inside the checkout
	log      io.Writer
}

func (e *env) traced() bool { return e.rec != nil }

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// outcome is what a run reports: metric values by name, the failure
// accounting, and whether every output checked out.
type outcome struct {
	metrics map[string]float64
	tally   tally
}

// buildModel returns the untrained Coherent Fusion scorer every
// workload scores with, at the repro grid (default CNN3DConfig) or the
// paper shape (48^3 grid, conv 32/64, dense 128). Seeds are fixed so
// the model never depends on -seed. The smoke scale swaps the paper
// shape for a 16^3 grid: same code paths, seconds less memory traffic.
func buildModel(paper, smoke bool) *fusion.Fusion {
	cfg := fusion.DefaultCNN3DConfig()
	if paper {
		cfg.Voxel = featurize.PaperVoxelOptions()
		cfg.ConvFilters1, cfg.ConvFilters2, cfg.DenseNodes = 32, 64, 128
		if smoke {
			cfg.Voxel.GridSize = 16
		}
	}
	cnn := fusion.NewCNN3D(cfg, 46)
	sg := fusion.NewSGCNN(fusion.DefaultSGCNNConfig(), 47)
	return fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, 48)
}

// jobOptions is the engine configuration shared by the workloads.
func jobOptions(ranks, batch int, prec screen.Precision) screen.JobOptions {
	o := screen.DefaultJobOptions()
	o.Ranks, o.LoadersPerRank, o.BatchSize, o.Precision = ranks, 1, batch, prec
	return o
}

// medianSetup runs a workload's whole set-up reps times and returns
// the last result with the median duration; earlier results are torn
// down. Set-up is repeated because one sample of a few seconds is too
// noisy to hold a regression bound.
func medianSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
		runtime.GC()
	}
	return last, median(secs), nil
}

// setupReps is how often set-up repeats: only the untraced run reports
// setup_s.
func (e *env) setupReps() int {
	if e.traced() || e.smoke {
		return 1
	}
	return 3
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// procStats reads the process's CPU time, peak resident set and GC
// pause total, and the machine's CPU counters: on a virtual machine the
// hypervisor can take the processor away (steal), which slows every
// number here and is no property of the code.
type procStats struct {
	cpu     time.Duration
	peakRSS float64 // MB
	gcPause time.Duration
	stolen  float64 // jiffies the hypervisor ran something else
	jiffies float64 // all jiffies, every state, every processor
}

func readProcStats() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	ps := procStats{
		cpu:     tv(ru.Utime) + tv(ru.Stime),
		peakRSS: float64(ru.Maxrss) / 1024, // Linux reports kilobytes
		gcPause: time.Duration(m.PauseTotalNs),
	}
	// First line of /proc/stat: "cpu user nice system idle iowait irq
	// softirq steal ...". Absent off Linux; steal then reads 0.
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(data), "\n")
		for i, f := range strings.Fields(line) {
			v, err := strconv.ParseFloat(f, 64)
			if i == 0 || i > 8 || err != nil {
				continue
			}
			ps.jiffies += v
			if i == 8 {
				ps.stolen = v
			}
		}
	}
	return ps
}

// stealShare is the share of the machine's CPU time between two
// readings that the hypervisor gave to someone else.
func stealShare(before, after procStats) float64 {
	if after.jiffies <= before.jiffies {
		return 0
	}
	return (after.stolen - before.stolen) / (after.jiffies - before.jiffies)
}

// tracedPass summarises the traced repetition of a workload, for the
// process and trace metrics every workload reports.
type tracedPass struct {
	wall          time.Duration
	poses         int
	spans         int // recorded during the pass, probes excluded
	before, after procStats
}

func (e *env) passMetrics(m map[string]float64, tp tracedPass) {
	cpu := tp.after.cpu - tp.before.cpu
	m["proc.cpu_s"] = cpu.Seconds()
	m["proc.cpu_util"] = cpu.Seconds() / (tp.wall.Seconds() * float64(e.p))
	m["proc.peak_rss_mb"] = tp.after.peakRSS
	m["proc.gc_pause_ms"] = ms(tp.after.gcPause - tp.before.gcPause)
	m["proc.cpu_steal_share"] = stealShare(tp.before, tp.after)
	m["trace.spans"] = float64(tp.spans)
	m["trace.poses_per_s"] = float64(tp.poses) / tp.wall.Seconds()
	// Computed, not a difference of two noisy runs: spans recorded
	// times the calibrated cost of one, over the traced wall-clock.
	m["trace.overhead_share"] = float64(tp.spans) * spanCost().Seconds() / tp.wall.Seconds()
}
