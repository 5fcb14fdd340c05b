package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"deepfusion/internal/chem"
	"deepfusion/internal/fusion"
	"deepfusion/internal/screen"
	"deepfusion/internal/serve"
	"deepfusion/internal/target"
)

// satWindow is the closed-loop phase's outstanding-request count.
const satWindow = 8

type serveReady struct {
	f        *fusion.Fusion
	pool     []docked
	rejected float64
	cfg      serve.Config
	engine   *serve.Engine
	srv      *http.Server
	served   chan struct{} // closed when srv.Serve returns
	client   *loadClient
}

func (r *serveReady) close() {
	r.engine.Drain()
	r.srv.Close()
	<-r.served
	r.client.http.CloseIdleConnections()
}

// loadClient is the one load generator: every HTTP call of every
// request goes through sem, so at most P calls are in flight and the
// transport never opens more than P connections, however many requests
// are parked waiting for their scores.
type loadClient struct {
	e      *env
	engine *serve.Engine
	base   string
	http   *http.Client
	sem    chan struct{}
}

// reqResult is one request as the client saw it. latency runs from the
// time the request was due — not from when the client got round to
// sending it — to its results decoded.
type reqResult struct {
	req      request
	err      error
	genLag   time.Duration // due -> POST started
	submit   time.Duration // POST /v1/submit round trip
	engine   time.Duration // server-side Submitted -> Completed
	fetch    time.Duration // GET results round trip
	latency  time.Duration
	poses    int
	response serve.ResultsResponse
}

// call makes one HTTP call once a slot is free and decodes the JSON
// answer. It returns when the call itself started: a request that
// queued for a slot was late leaving the generator, not slow in the
// service.
func (c *loadClient) call(method, url string, body []byte, want int, into any) (started time.Time, err error) {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	started = time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return started, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return started, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return started, err
	}
	if resp.StatusCode != want {
		return started, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return started, json.Unmarshal(data, into)
}

// do runs one request end to end: submit, park until the engine has
// scored it, fetch the results. Parking is on the engine's own Done
// channel, so waiting holds no connection.
func (c *loadClient) do(rq request, due time.Time) reqResult {
	res := reqResult{req: rq}
	rec := c.e.rec
	root := rec.begin("request", "", -1)
	defer rec.end(root)

	var sub serve.SubmitResponse
	sp := rec.begin("POST /v1/submit", "", root)
	sent, err := c.call("POST", c.base+"/v1/submit", rq.body, http.StatusAccepted, &sub)
	res.genLag, res.submit, res.err = sent.Sub(due), time.Since(sent), err
	rec.end(sp)
	rec.adopt(sp, root, sub.ID)
	rec.adopt(root, -1, sub.ID)
	if res.err != nil {
		return res
	}
	er, ok := c.engine.Request(sub.ID)
	if !ok {
		res.err = fmt.Errorf("engine does not know request %s", sub.ID)
		return res
	}
	sp = rec.begin("engine wait", sub.ID, root)
	<-er.Done()
	rec.end(sp)

	sp = rec.begin("GET results", sub.ID, root)
	t0, err := c.call("GET", c.base+"/v1/requests/"+sub.ID+"/results", nil, http.StatusOK, &res.response)
	res.err = err
	done := time.Now()
	rec.end(sp)
	res.fetch = done.Sub(t0)
	res.latency = done.Sub(due)
	snap := c.engine.Snapshot(er)
	res.engine = snap.Completed.Sub(snap.Submitted)
	res.poses = len(res.response.Predictions)
	return res
}

// phaseResult is one load phase.
type phaseResult struct {
	name        string
	wall        time.Duration
	results     []reqResult
	inflightMid int
	inflightEnd int
	inflightMax int
	stats       serve.StatsSnapshot // engine counters accrued during the phase
}

func (p *phaseResult) failures() int {
	n := 0
	for _, r := range p.results {
		if r.err != nil {
			n++
		}
	}
	return n
}

func (p *phaseResult) poses() int {
	n := 0
	for _, r := range p.results {
		n += r.poses
	}
	return n
}

// column extracts one timing of the successful requests, in ms.
func (p *phaseResult) column(of func(reqResult) time.Duration) []float64 {
	var out []float64
	for _, r := range p.results {
		if r.err == nil {
			out = append(out, ms(of(r)))
		}
	}
	return sorted(out)
}

func latencyOf(r reqResult) time.Duration { return r.latency }
func genLagOf(r reqResult) time.Duration  { return r.genLag }

// sustainable applies the fixed-rate acceptance rule: p95 within the
// limit, nothing refused or failed, backlog not growing.
func (p *phaseResult) sustainable(batch int) bool {
	return p.failures() == 0 &&
		percentile(p.column(latencyOf), 0.95) <= latencyLimitMS &&
		!backlogGrowing(p.inflightMid, p.inflightEnd, batch)
}

func (c *loadClient) status() (serve.StatsSnapshot, error) {
	var st serve.ServiceStatus
	_, err := c.call("GET", c.base+"/v1/status", nil, http.StatusOK, &st)
	return st.Stats, err
}

// withStats runs a phase between two reads of /v1/status and keeps the
// difference of the engine's counters.
func (c *loadClient) withStats(name string, run func(p *phaseResult)) (*phaseResult, error) {
	before, err := c.status()
	if err != nil {
		return nil, err
	}
	p := &phaseResult{name: name}
	span := c.e.rec.begin("phase "+name, "", -1)
	t0 := time.Now()
	run(p)
	p.wall = time.Since(t0)
	c.e.rec.end(span)
	after, err := c.status()
	if err != nil {
		return nil, err
	}
	p.stats = serve.StatsSnapshot{
		PosesScored:     after.PosesScored - before.PosesScored,
		FlushesFull:     after.FlushesFull - before.FlushesFull,
		FlushesDeadline: after.FlushesDeadline - before.FlushesDeadline,
		Rejections:      after.Rejections - before.Rejections,
		TargetEvictions: after.TargetEvictions - before.TargetEvictions,
	}
	return p, nil
}

// closedLoop is the sat phase: satWindow callers, each sending its next
// eight-compound request as soon as the previous one's results are in.
func (c *loadClient) closedLoop(rng *rand.Rand, pool []docked, dur time.Duration) (*phaseResult, error) {
	return c.withStats("sat", func(p *phaseResult) {
		var mu sync.Mutex // guards rng, sent and p.results
		sent := 0
		var wg sync.WaitGroup
		deadline := time.Now().Add(dur)
		for w := 0; w < satWindow; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for first := true; first || time.Now().Before(deadline); first = false {
					mu.Lock()
					rq := closedLoopRequest(rng, pool, sent)
					sent++
					mu.Unlock()
					res := c.do(rq, time.Now())
					mu.Lock()
					p.results = append(p.results, res)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	})
}

// openLoop sends a Poisson schedule regardless of how the service is
// coping, samples the requests in flight at the phase's midpoint and
// end, then lets the stragglers finish outside the phase.
func (c *loadClient) openLoop(name string, reqs []request, dur time.Duration) (*phaseResult, error) {
	return c.withStats(name, func(p *phaseResult) {
		p.results = make([]reqResult, len(reqs))
		var inflight atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		sampledMid := false
		for i, rq := range reqs {
			due := start.Add(rq.due)
			time.Sleep(time.Until(due))
			if !sampledMid && rq.due >= dur/2 {
				p.inflightMid, sampledMid = int(inflight.Load()), true
			}
			wg.Add(1)
			p.inflightMax = max(p.inflightMax, int(inflight.Add(1)))
			go func() {
				defer wg.Done()
				p.results[i] = c.do(rq, due)
				inflight.Add(-1)
			}()
		}
		time.Sleep(time.Until(start.Add(dur)))
		p.inflightEnd = int(inflight.Load())
		wg.Wait()
	})
}

// newServeReady is serve_http's whole set-up: the model, a compound
// pool validated on all four pockets, the engine, its handler on a
// loopback listener, the load client, and one warm-up batch per target
// and worker.
func newServeReady(e *env, poolSize int) (*serveReady, error) {
	root := e.rec.begin("setup", "", -1)
	defer e.rec.end(root)
	r := &serveReady{f: buildModel(false, false)}
	r.cfg = serve.DefaultConfig([]screen.Scorer{r.f}) // batch 8, MaxWait 25 ms, f64, in-memory store
	r.cfg.Workers = e.p
	rng := newRNG(e.seed, e.workload)
	var tried int
	var err error
	ctx := context.Background()
	// The pool is docked with the seed the server docks with, so the
	// poses here are the poses the service will score.
	e.rec.timed("dockPool", "", root, func() {
		r.pool, tried, err = dockPool(ctx, rng, poolSize, target.All(), r.cfg.Job.Seed)
	})
	if err != nil {
		return nil, err
	}
	r.rejected = 1 - float64(len(r.pool))/float64(tried)
	if r.engine, err = serve.NewEngine(r.cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.engine.Drain()
		return nil, err
	}
	r.srv = &http.Server{Handler: serve.NewHandler(r.engine)}
	r.served = make(chan struct{})
	go func() {
		defer close(r.served)
		_ = r.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	r.client = &loadClient{
		e: e, engine: r.engine, base: "http://" + ln.Addr().String(),
		http: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: e.p, MaxIdleConnsPerHost: e.p},
			Timeout:   30 * time.Second,
		},
		sem: make(chan struct{}, e.p),
	}
	// Warm-up: one full batch per target builds its prefeature and
	// every worker's session.
	for _, t := range targetMix {
		for w := 0; w < e.p; w++ {
			rq := newRequest(r.pool, t.name, rng.Perm(len(r.pool))[:fullBatchCompounds], 0)
			if res := r.client.do(rq, time.Now()); res.err != nil {
				r.close()
				return nil, fmt.Errorf("warm-up on %s: %w", t.name, res.err)
			}
		}
	}
	return r, nil
}

// runServe is serve_http: the warm screening engine behind its real
// HTTP handler on a loopback listener, driven by one in-process load
// generator. The untraced run measures saturation throughput (closed
// loop) and latency at the mid rate (open loop); the traced run adds
// the low and high rates for the per-layer picture.
func runServe(e *env) (*outcome, error) {
	ctx := context.Background()
	poolSize := 256
	if e.smoke {
		poolSize = 8
	}

	setup := func() (*serveReady, error) { return newServeReady(e, poolSize) }
	r, setupS, err := medianSetup(e.setupReps(), setup, (*serveReady).close)
	if err != nil {
		return nil, err
	}
	defer r.close()

	// Phases. Untraced: sat for 40 % of the time, mid for 60 %. Traced:
	// a short sat, then mid, high and low. Each open-loop phase follows
	// a busier one: this service answers the same rate a fifth slower,
	// and with twice the tail, after a quiet phase than after a busy one
	// (the host clocks an idle machine down), and mid must be measured
	// in the state the untraced run measures it in.
	rng := newRNG(e.seed, e.workload+"/load")
	secs := func(share float64) time.Duration { return time.Duration(share * e.seconds * float64(time.Second)) }
	type rate struct {
		name string
		rps  float64
	}
	rates := []rate{{"mid", rateMid}}
	satDur, rateDur := secs(0.4), secs(0.6)
	if e.traced() {
		rates = []rate{{"mid", rateMid}, {"high", rateHigh}, {"low", rateLow}}
		satDur, rateDur = secs(0.2), secs(0.3)
	}
	before := readProcStats()
	passStart := time.Now()
	sat, err := r.client.closedLoop(rng, r.pool, satDur)
	if err != nil {
		return nil, err
	}
	all := []*phaseResult{sat}
	for _, rt := range rates {
		p, err := r.client.openLoop(rt.name, poissonSchedule(rng, r.pool, rt.rps, rateDur), rateDur)
		if err != nil {
			return nil, err
		}
		all = append(all, p)
	}
	pass := tracedPass{wall: time.Since(passStart), spans: e.rec.count(), before: before, after: readProcStats()}

	// Failure accounting and correctness, after timing: every request
	// answered, every pose present and scored exactly as a solo f64 job
	// scores it.
	out := &outcome{metrics: map[string]float64{}}
	for _, p := range all {
		pass.poses += p.poses()
		out.tally.attempted += len(p.results)
		for _, res := range p.results {
			if res.err != nil {
				out.tally.problem("%s: %v", p.name, res.err)
			}
		}
		if p.stats.Rejections != 0 {
			out.tally.problem("%s: engine refused %d submissions", p.name, p.stats.Rejections)
		}
	}
	if err := checkServeResults(ctx, &out.tally, r, all); err != nil {
		return nil, err
	}

	batch := r.cfg.Job.BatchSize
	for _, p := range all {
		lat := p.column(latencyOf)
		e.logf("# %s %-4s %4d requests in %.1f s, %d poses, latency ms p50/p95/p99 %.1f/%.1f/%.1f, generator lag ms p95 %.1f, in flight mid/end/max %d/%d/%d, flushes full/deadline %d/%d, failed %d",
			e.workload, p.name, len(p.results), p.wall.Seconds(), p.poses(), percentile(lat, 0.5), percentile(lat, 0.95), percentile(lat, 0.99),
			percentile(p.column(genLagOf), 0.95), p.inflightMid, p.inflightEnd, p.inflightMax, p.stats.FlushesFull, p.stats.FlushesDeadline, p.failures())
	}
	phase := func(name string) *phaseResult {
		for _, p := range all {
			if p.name == name {
				return p
			}
		}
		panic("no phase " + name)
	}
	mid := phase("mid")
	midLat := mid.column(latencyOf)
	if !e.traced() {
		out.metrics["setup_s"] = setupS
		out.metrics["poses_per_s"] = float64(sat.poses()) / sat.wall.Seconds()
		out.metrics["latency_p50_ms"] = percentile(midLat, 0.5)
		out.metrics["latency_p95_ms"] = percentile(midLat, 0.95)
		return out, nil
	}

	m := out.metrics
	e.passMetrics(m, pass)
	mols := make([]*chem.Mol, 0, 8)
	for _, d := range r.pool[:min(8, len(r.pool))] {
		mols = append(mols, d.mol)
	}
	if err := e.runProbes(m, probeEnv{
		f: r.f, opts: jobOptions(e.p, batch, screen.PrecisionF64), pocket: target.Protease1,
		poses: shuffledPoses(rng, r.pool[:min(16, len(r.pool))], "protease1", 48), mols: mols,
		rejected: r.rejected, dockSeed: r.cfg.Job.Seed,
	}); err != nil {
		return nil, err
	}

	// Service-layer metrics are dimensionless — shares of the latency
	// limit, of a request's latency, counts — because every workload
	// reports every metric and the other three never enter this layer.
	okRate := 0.0
	for _, rt := range []rate{{"low", rateLow}, {"mid", rateMid}, {"high", rateHigh}} {
		p := phase(rt.name)
		lat := p.column(latencyOf)
		m["serve.p50_limit_share."+rt.name] = percentile(lat, 0.5) / latencyLimitMS
		m["serve.p95_limit_share."+rt.name] = percentile(lat, 0.95) / latencyLimitMS
		if p.sustainable(batch) {
			okRate = rt.rps
		}
	}
	m["serve.max_rate_ok_rps"] = okRate
	p50 := percentile(midLat, 0.5)
	m["serve.submit_share"] = percentile(mid.column(func(r reqResult) time.Duration { return r.submit }), 0.5) / p50
	m["serve.engine_share"] = percentile(mid.column(func(r reqResult) time.Duration { return r.engine }), 0.5) / p50
	m["serve.fetch_share"] = percentile(mid.column(func(r reqResult) time.Duration { return r.fetch }), 0.5) / p50
	var submitMS, compounds float64
	for _, res := range mid.results {
		submitMS += ms(res.submit)
		compounds += float64(len(res.req.compounds))
	}
	m["serve.gen_lag_limit_share"] = percentile(mid.column(genLagOf), 0.95) / latencyLimitMS
	// Docking CPU time per compound comes from the probe; over the
	// wall-clock of the submits that docked them it is a rough share.
	m["serve.dock_share"] = compounds * m["dock.compound_ms"] / submitMS
	for _, p := range all {
		if flushes := p.stats.FlushesFull + p.stats.FlushesDeadline; flushes > 0 {
			m["serve.batch_fill."+p.name] = float64(p.stats.PosesScored) / float64(flushes*int64(batch))
		}
		m["serve.rejections"] += float64(p.stats.Rejections)
		m["serve.target_evictions"] += float64(p.stats.TargetEvictions)
	}
	m["serve.flushes_full.sat"] = float64(sat.stats.FlushesFull)
	m["serve.flushes_deadline.sat"] = float64(sat.stats.FlushesDeadline)
	m["serve.flushes_full.low"] = float64(phase("low").stats.FlushesFull)
	m["serve.flushes_deadline.low"] = float64(phase("low").stats.FlushesDeadline)
	m["serve.inflight_max.high"] = float64(phase("high").inflightMax)

	// The admission seam alone, without HTTP or docking.
	one := r.pool[0].poses["protease1"][:1]
	d := e.measure("Engine.SubmitPoses", -1, func() {
		if er, err := r.engine.SubmitPoses("protease1", one); err == nil {
			<-er.Done()
		}
	})
	e.logf("# %s direct Engine.SubmitPoses of one pose, to scored: %.2f ms (includes the batching deadline)", e.workload, ms(d))
	return out, nil
}

// checkServeResults scores, per target, every pose any request asked
// for with a solo f64 job and holds each response to it: the right
// number of poses, each one known, each score bit-equal.
func checkServeResults(ctx context.Context, t *tally, r *serveReady, phases []*phaseResult) error {
	used := map[string]map[int]bool{}
	for _, p := range phases {
		for _, res := range p.results {
			if used[res.req.target] == nil {
				used[res.req.target] = map[int]bool{}
			}
			for _, c := range res.req.compounds {
				used[res.req.target][c] = true
			}
		}
	}
	ref := map[poseKey]screen.Prediction{}
	for name, idx := range used {
		var poses []screen.Pose
		for c := range r.pool {
			if idx[c] {
				poses = append(poses, r.pool[c].poses[name]...)
			}
		}
		scores, _, err := referenceScores(ctx, r.f, target.ByName(name), poses, r.cfg.Job.BatchSize)
		if err != nil {
			return err
		}
		for k, v := range scores {
			ref[k] = v
		}
	}
	for _, p := range phases {
		for _, res := range p.results {
			if res.err != nil {
				continue
			}
			if want := len(res.req.compounds) * posesPerCompound; res.poses != want {
				t.problem("%s request %s: %d poses, want %d", p.name, res.response.ID, res.poses, want)
			}
			got := make([]screen.Prediction, len(res.response.Predictions))
			for i, pr := range res.response.Predictions {
				got[i] = screen.Prediction{CompoundID: pr.CompoundID, Target: res.response.Target, PoseRank: pr.PoseRank, Fusion: pr.Fusion, Vina: pr.Vina}
			}
			t.checkExact(p.name+" request "+res.response.ID, got, ref)
		}
	}
	return nil
}
