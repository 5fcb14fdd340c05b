// Command benchmark is the repository's one benchmark: four workloads
// over the screening funnel, end-to-end metrics from an untraced run,
// per-layer metrics and a span trace from a traced run, and a
// correctness check of every output. BENCHMARK.json at the repository
// root declares the contract; README.md beside this file explains the
// workloads and metrics.
//
// It measures every layer from outside: by timing calls into public
// functions and through the public hooks the program already has.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports
// all four from its untraced run. What "an operation" is differs: a
// whole job (screen_*), one work unit from claim to ack
// (campaign_units), one request at the mid arrival rate (serve_http).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"poses_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
}

// perLayer is reported by the traced run. The compute-layer metrics
// come from probes every workload runs on its own shapes. Metrics of a
// layer that only some workloads enter (campaign, serve) are
// dimensionless, so a workload that never enters it reports a true 0.
var perLayer = []metricDef{
	{"tensor.matmul_packed_us", "us"},
	{"tensor.matmul_gflops", "gflop/s"},
	{"tensor.matmul_flop_per_byte", "flop/byte"},
	{"nn.conv3d_fwd_ms", "ms"},
	{"nn.conv3d_gflops", "gflop/s"},
	{"nn.conv3d_bytes_mb", "MB"},
	{"graph.ggconv_us", "us"},
	{"featurize.prefeature_build_ms", "ms"},
	{"featurize.voxelize_us", "us"},
	{"featurize.graph_us", "us"},
	{"featurize.voxel_nonzero_share", "share"},
	{"fusion.featurize_pose_us", "us"},
	{"fusion.predict_batch_ms", "ms"},
	{"fusion.cnn3d_batch_ms", "ms"},
	{"fusion.sgcnn_batch_ms", "ms"},
	{"fusion.trunk_self_ms", "ms"},
	{"fusion.allocs_per_batch", "count"},
	{"dock.compound_ms", "ms"},
	{"dock.poses_per_compound", "count"},
	{"dock.rejected_share", "share"},
	{"screen.session_batch_ms", "ms"},
	{"screen.runjob_efficiency", "share"},
	{"screen.allocs_per_pose", "count"},
	{"screen.bytes_per_pose", "bytes"},
	{"screen.write_shards_ms", "ms"},
	{"screen.read_shards_ms", "ms"},
	{"h5lite.encode_mb_per_s", "MB/s"},
	{"h5lite.decode_mb_per_s", "MB/s"},
	{"h5lite.bytes_per_pose", "bytes"},
	{"campaign.shard_write_ms", "ms"},
	{"campaign.shard_read_ms", "ms"},
	{"campaign.units", "count"},
	{"campaign.worker_busy_share", "share"},
	{"campaign.control_share", "share"},
	{"campaign.claim_share", "share"},
	{"campaign.claim_growth", "ratio"},
	{"campaign.ack_share", "share"},
	{"campaign.heartbeats", "count"},
	{"campaign.syncs", "count"},
	{"campaign.sync_share", "share"},
	{"campaign.finalize_share", "share"},
	{"campaign.manifest_bytes", "bytes"},
	{"campaign.reassignments", "count"},
	{"campaign.corruptions", "count"},
	{"serve.p50_limit_share.low", "share"},
	{"serve.p95_limit_share.low", "share"},
	{"serve.p50_limit_share.mid", "share"},
	{"serve.p95_limit_share.mid", "share"},
	{"serve.p50_limit_share.high", "share"},
	{"serve.p95_limit_share.high", "share"},
	{"serve.max_rate_ok_rps", "1/s"},
	{"serve.submit_share", "share"},
	{"serve.engine_share", "share"},
	{"serve.fetch_share", "share"},
	{"serve.gen_lag_limit_share", "share"},
	{"serve.dock_share", "share"},
	{"serve.batch_fill.sat", "share"},
	{"serve.batch_fill.low", "share"},
	{"serve.batch_fill.mid", "share"},
	{"serve.batch_fill.high", "share"},
	{"serve.flushes_full.sat", "count"},
	{"serve.flushes_deadline.sat", "count"},
	{"serve.flushes_full.low", "count"},
	{"serve.flushes_deadline.low", "count"},
	{"serve.inflight_max.high", "count"},
	{"serve.rejections", "count"},
	{"serve.target_evictions", "count"},
	{"proc.cpu_s", "s"},
	{"proc.cpu_util", "share"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.cpu_steal_share", "share"},
	{"trace.spans", "count"},
	{"trace.poses_per_s", "1/s"},
	{"trace.overhead_share", "share"},
}

// workloads in the order BENCHMARK.json lists them.
var workloads = []struct {
	name string
	run  func(*env) (*outcome, error)
}{
	{"screen_repro", func(e *env) (*outcome, error) { return runScreen(e, false) }},
	{"screen_paper", func(e *env) (*outcome, error) { return runScreen(e, true) }},
	{"campaign_units", runCampaign},
	{"serve_http", runServe},
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	trace    string
	seed     int64
	seconds  float64
	smoke    bool
	repeat   int
	scratch  string
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: screen_repro, screen_paper, campaign_units, serve_http, or all")
	flag.StringVar(&o.trace, "trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and trace file; both")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (never of the model)")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed section")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs: exercises every code path in seconds, measures nothing")
	flag.IntVar(&o.repeat, "repeat", 0, "run each selected workload this many times untraced, with seeds seed, seed+1, ..., and judge the spread of every end-to-end metric against its bound")
	flag.StringVar(&o.scratch, "scratch", ".bench_build", "directory for campaign directories and other scratch files")
	flag.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	var selected []string
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w.name)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	switch {
	case o.repeat > 0:
		if err := repeatRuns(o, selected); err != nil {
			fatal(err)
		}
	case len(selected) > 1 || o.trace == "both":
		// Each run gets a process of its own, so no workload inherits
		// another's heap.
		modes := []string{"0", "1"}
		if o.trace != "both" {
			modes = []string{o.trace}
		}
		for _, w := range selected {
			for _, mode := range modes {
				if _, err := runChild(o, w, mode, o.seed, os.Stdout); err != nil {
					fatal(err)
				}
			}
		}
	default:
		rep, err := runOne(o, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs one workload in one trace mode in this process and
// prints its metrics by name, then the report line.
func runOne(o options, w io.Writer) (*report, error) {
	var traced bool
	switch o.trace {
	case "0":
	case "1":
		traced = true
	default:
		return nil, fmt.Errorf("-trace must be 0 or 1 for a single run, got %q", o.trace)
	}
	p := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(p)
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{workload: o.workload, seed: o.seed, seconds: o.seconds, smoke: o.smoke, p: p, dir: dir, log: w}
	defs := endToEnd
	if traced {
		e.rec = newRecorder()
		defs = perLayer
	}
	var run func(*env) (*outcome, error)
	for _, wl := range workloads {
		if wl.name == o.workload {
			run = wl.run
		}
	}
	e.logf("# %s seed=%d seconds=%g trace=%s P=%d", o.workload, o.seed, o.seconds, o.trace, p)
	before := readProcStats()
	out, err := run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if traced {
		path := filepath.Join(o.outDir, "trace."+o.workload+".json")
		totals, err := e.rec.write(path, o.workload)
		if err != nil {
			return nil, err
		}
		printSpanTotals(e, totals, path)
	}
	rep, err := makeReport(out, defs)
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		e.logf("%-32s %16.6g %s", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	for _, p := range out.tally.problems {
		e.logf("# PROBLEM %s", p)
	}
	if steal := stealShare(before, readProcStats()); steal > 0.02 {
		e.logf("# WARNING the hypervisor took %.0f%% of this machine's CPU time during the run: every timing above is inflated", 100*steal)
	}
	share := float64(rep.Failed) / float64(rep.Attempted)
	e.logf("# ops_attempted %d ops_failed %d failed_share %g correct %v", rep.Attempted, rep.Failed, share, rep.Correct)
	line, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(line))
	return rep, nil
}

// makeReport holds a run to the declared metric set: every declared
// name exactly once, nothing undeclared. A per-layer metric the
// workload did not set belongs to a layer it never entered, and is 0.
func makeReport(out *outcome, defs []metricDef) (*report, error) {
	rep := &report{
		Correct:   out.tally.correct(),
		Attempted: max(out.tally.attempted, 1),
		Failed:    out.tally.failed,
		Metrics:   map[string]reportValue{},
	}
	for _, d := range defs {
		rep.Metrics[d.name] = reportValue{Value: out.metrics[d.name], Unit: d.unit}
	}
	for name := range out.metrics {
		if _, ok := rep.Metrics[name]; !ok {
			return nil, fmt.Errorf("workload set undeclared metric %q", name)
		}
	}
	return rep, nil
}

func printSpanTotals(e *env, totals map[string]spanTotals, path string) {
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	e.logf("# trace: %s", path)
	for _, n := range names {
		t := totals[n]
		e.logf("# span %-32s n=%-6d total %10.1f ms  self %10.1f ms", n, t.Count, t.TotalMS, t.SelfMS)
	}
}

// runChild re-executes this program for one (workload, trace mode,
// seed), streams its output to w, waits for it, and returns the report
// from its last line. A child that reports an incorrect run exits
// non-zero, which is an error here.
func runChild(o options, workload, trace string, seed int64, w io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload, "-trace", trace, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-scratch", o.scratch, "-out", o.outDir,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var buf strings.Builder
	cmd.Stdout = io.MultiWriter(w, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s trace=%s seed=%d: %w", workload, trace, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s trace=%s seed=%d: last line is not a report: %w", workload, trace, seed, err)
	}
	return &rep, nil
}

// benchmarkFile is the part of BENCHMARK.json the repeat mode needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	return &bf, json.Unmarshal(data, &bf)
}

// repeatRuns is the repeatability mode: n untraced runs per workload on
// n seeds, then for every end-to-end metric the values, their median
// and their quartile spread as a share of the median, judged against
// the bound BENCHMARK.json fixes: STEADY below a third of it, WIDE
// within it, UNRESOLVED beyond — such a metric cannot show a regression
// of its bound's size, and the run exits non-zero.
func repeatRuns(o options, selected []string) error {
	if o.repeat < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	unresolved := 0
	for _, w := range selected {
		values := map[string][]float64{}
		for i := 0; i < o.repeat; i++ {
			before := readProcStats()
			rep, err := runChild(o, w, "0", o.seed+int64(i), io.Discard)
			if err != nil {
				return err
			}
			if steal := stealShare(before, readProcStats()); steal > 0.02 {
				fmt.Printf("%-15s seed %d: the hypervisor took %.0f%% of the machine's CPU time; its values are inflated\n", w, o.seed+int64(i), 100*steal)
			}
			for name, v := range rep.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, m := range bf.EndToEnd {
			v := values[m.Name]
			sp := spread(v)
			verdict := "STEADY"
			switch {
			case m.Name == "setup_s":
				verdict = "(spread not judged)"
			case sp > m.Bound:
				verdict = "UNRESOLVED"
				unresolved++
			case sp > m.Bound/3:
				verdict = "WIDE"
			}
			fmt.Printf("%-15s %-15s median %12.6g %-4s spread %6.2f%% bound %5.1f%% %-10s %s\n",
				w, m.Name, median(v), m.Unit, 100*sp, 100*m.Bound, verdict, formatValues(v))
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d metric(s) spread wider than their bound", unresolved)
	}
	return nil
}

func formatValues(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
