package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndQuartiles(t *testing.T) {
	asc := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.95, 48}, {1, 50}} {
		if got := percentile(asc, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5, 3}); !near(got, 4) {
		t.Errorf("median = %v, want 4", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q2, 1.5) || !near(q3, 2.25) {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestSpearman(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	rev := make([]float64, len(a))
	swapped := append([]float64(nil), a...)
	for i, v := range a {
		rev[i] = -v
	}
	swapped[4], swapped[5] = swapped[5], swapped[4]
	if got := spearman(a, a); !near(got, 1) {
		t.Errorf("identical order: %v", got)
	}
	if got := spearman(a, rev); !near(got, -1) {
		t.Errorf("reversed order: %v", got)
	}
	// One adjacent swap among 12: 1 - 6*2/(12*143).
	if got := spearman(a, swapped); !near(got, 1-12.0/1716) {
		t.Errorf("one swap: %v", got)
	}
	if got := spearman([]float64{1, 1, 2}, []float64{5, 5, 9}); !near(got, 1) {
		t.Errorf("ties: %v", got)
	}
}

func TestSelfTimeIsSpanMinusChildCover(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "submit", Parent: 0, Start: 10, End: 40},
		{Name: "wait", Parent: 0, Start: 30, End: 60},   // overlaps submit: counted once
		{Name: "fetch", Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped
		{Name: "decode", Parent: 3, Start: 95, End: 100},
	}
	fillSelfTimes(spans)
	want := []int64{100 - 50 - 10, 30, 30, 25, 5}
	for i, w := range want {
		if spans[i].Self != w {
			t.Errorf("%s self = %d, want %d", spans[i].Name, spans[i].Self, w)
		}
	}
	totals := rollUp(spans)
	if totals["request"].Count != 1 || !near(totals["request"].SelfMS, 40e-6) {
		t.Errorf("roll-up = %+v", totals["request"])
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	i := r.begin("x", "", -1)
	r.end(i)
	r.adopt(i, -1, "id")
	if d := r.timed("y", "", -1, func() {}); d < 0 || r.count() != 0 {
		t.Errorf("nil recorder recorded something")
	}
}

func TestBacklogGrowthRule(t *testing.T) {
	for _, c := range []struct {
		mid, end, batch int
		growing         bool
	}{{0, 0, 8, false}, {5, 13, 8, false}, {5, 14, 8, true}, {40, 20, 8, false}} {
		if got := backlogGrowing(c.mid, c.end, c.batch); got != c.growing {
			t.Errorf("backlogGrowing(%d, %d, %d) = %v", c.mid, c.end, c.batch, got)
		}
	}
}

func TestPoissonScheduleIsSeededAndPaced(t *testing.T) {
	pool := make([]docked, 16)
	for i := range pool {
		pool[i].id = "enamine:" + string(rune('a'+i))
	}
	a := poissonSchedule(newRNG(7, "serve_http"), pool, 200, 10*time.Second)
	b := poissonSchedule(newRNG(7, "serve_http"), pool, 200, 10*time.Second)
	c := poissonSchedule(newRNG(8, "serve_http"), pool, 200, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedule")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seed, same schedule")
	}
	if len(a) != 2000 {
		t.Errorf("%d arrivals in 10 s at 200/s, want the expected count exactly", len(a))
	}
	compounds := 0
	for i, r := range a {
		if i > 0 && r.due < a[i-1].due {
			t.Fatal("arrivals out of order")
		}
		compounds += len(r.compounds)
	}
	targets := map[string]int{}
	for _, r := range a {
		targets[r.target]++
	}
	if compounds != 3800 || targets["protease1"] != 1100 || targets["spike2"] != 100 {
		t.Errorf("%d compounds (want 1.9 a request), targets %v (want the exact 55/25/15/5 mix)", compounds, targets)
	}
}

// A request that is already late when the generator gets to it is
// timed from when it was due, and the lateness is reported.
func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	e := &env{workload: "serve_http", seed: 1, seconds: 1, smoke: true, p: 2, dir: t.TempDir(), log: io.Discard}
	r, err := newServeReady(e, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	const late = 80 * time.Millisecond
	rq := newRequest(r.pool, "protease1", []int{0}, 0)
	res := r.client.do(rq, time.Now().Add(-late))
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.genLag < late {
		t.Errorf("gen lag %v, want at least %v", res.genLag, late)
	}
	if res.latency < res.genLag+res.submit+res.fetch {
		t.Errorf("latency %v is shorter than lag %v + submit %v + fetch %v", res.latency, res.genLag, res.submit, res.fetch)
	}
	if res.engine <= 0 || res.poses != posesPerCompound {
		t.Errorf("engine time %v, poses %d", res.engine, res.poses)
	}
	p := &phaseResult{results: []reqResult{res}, inflightMid: 0, inflightEnd: 1}
	if !p.sustainable(8) && ms(res.latency) <= latencyLimitMS {
		t.Errorf("a lone request within the limit is sustainable")
	}
	p.inflightEnd = 9
	if p.sustainable(8) {
		t.Errorf("backlog grew by more than a batch, yet sustainable")
	}
}

// Every workload, both trace modes, at the smoke scale: the code cannot
// rot, and each run reports exactly the declared metrics.
func TestSmokeRunsEveryWorkload(t *testing.T) {
	scratch, out := t.TempDir(), t.TempDir()
	for _, w := range workloads {
		for _, mode := range []string{"0", "1"} {
			var buf bytes.Buffer
			rep, err := runOne(options{workload: w.name, trace: mode, seed: 1, seconds: 0.5, smoke: true, scratch: scratch, outDir: out}, &buf)
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.name, mode, err, buf.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.name, mode, rep.Correct, rep.Attempted, rep.Failed, buf.String())
			}
			defs := endToEnd
			if mode == "1" {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(out, "trace."+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, %d declared", w.name, mode, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rep.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s missing or in %q", w.name, mode, d.name, v.Unit)
				}
				if mode == "0" && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, v.Value)
				}
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var last report
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Errorf("%s trace=%s: last line is not the report: %v", w.name, mode, err)
			}
		}
	}
}

// BENCHMARK.json and the program declare the same workloads and
// metrics, in the same order, in the same units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := bf.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v, want %s in %s with a bound in (0, 0.25]", i, m, d.name, d.unit)
		}
	}
	for i, d := range perLayer {
		if m := bf.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: %+v, want %s in %s", i, m, d.name, d.unit)
		}
	}
}
