// Command campaign drives the durable multi-target screening
// orchestrator: the production layer that ran the paper's months-long
// four-target SARS-CoV-2 campaign as many concurrent, restartable
// Fusion jobs. A campaign lives in a directory holding a JSON
// manifest plus compound-keyed h5lite shards; killing the process at
// any point loses at most the in-flight chunks, and `resume` picks up
// exactly where the run stopped.
//
// Usage:
//
//	campaign run    -dir DIR [-targets a,b] [-scorers a,b,c] [-n N]
//	                [-chunk N] [-workers N] [-loaders N] [-top N]
//	                [-precision f64|f32] [-failprob P] [-seed N] [-full]
//	                [-lease-ttl D] [-listen ADDR]
//	campaign resume -dir DIR [-precision f64|f32] [-workers N]
//	                [-lease-ttl D] [-listen ADDR]
//	campaign worker -dir DIR [-id ID] [-lease-ttl D]
//	campaign worker -coordinator URL [-scratch DIR] [-id ID] [-lease-ttl D]
//	campaign status -dir DIR [-json]
//	campaign status -coordinator URL [-json]
//	campaign fsck   -dir DIR [-repair] [-json]
//
// `run` creates the campaign (refusing to clobber an existing one),
// builds the requested scorer set (training models at the requested
// scale) and executes every work unit. `resume` reloads the manifest,
// deterministically rebuilds the same scorer set from the recorded
// names and scale, skips completed chunks and re-runs the rest —
// refusing to resume under a different scorer set. `status` prints
// per-target progress, the manifest's scorer set and per-worker
// liveness without touching models or compound libraries.
//
// run and resume start the coordinator (sole manifest writer, lease
// expiry, finalization) plus -workers in-process workers, each
// claiming (target, chunk) units through the campaign directory's
// lease store. `campaign worker -dir DIR` is the attach mode: run it
// by hand — on this host or any host sharing the directory — to join
// extra workers to a live campaign (-workers 0 runs a coordinator
// that relies entirely on attached workers). Killing a worker at any
// instant loses nothing: its leases expire and the coordinator
// reassigns the units, with final selections byte-identical to an
// uninterrupted run. resume fences the claims of a run that was
// killed, so their units re-run at once rather than after a lease
// TTL.
//
// With -listen the coordinator additionally serves the lease protocol
// over HTTP, so workers on hosts that do NOT share the campaign
// directory can join: `campaign worker -coordinator http://host:8765`
// mirrors the manifest into a local scratch directory, claims units
// over the wire, and ships finished shard bytes back before acking.
// Transient network faults are retried with capped backoff; the
// epoch fence makes every retried ack fold exactly once, so the
// byte-identity guarantee holds across network partitions too.
//
// Every shard is a checksummed h5lite v2 file and every fold point
// verifies integrity before trusting bytes, so torn writes, bit flips
// and truncation are detected — corrupt shards are quarantined (never
// deleted) and their units re-run automatically under a bounded
// repair budget. `campaign fsck -dir DIR` walks a campaign directory
// offline and reports damaged or unaccounted files; add -repair to
// quarantine the damage and re-queue the affected units for the next
// resume. `status` surfaces the lifetime corruption/repair counters.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/campaign/dispatch"
	"deepfusion/internal/campaign/dispatchhttp"
	"deepfusion/internal/cluster"
	"deepfusion/internal/experiments"
)

func usage() {
	fmt.Fprintf(os.Stderr, `campaign — durable, resumable multi-target screening runs

Subcommands:
  run     create a campaign directory and run it to completion
  resume  continue a killed, interrupted or failure-stalled campaign
  worker  attach one more worker process to a live campaign
  status  print per-target unit progress (and worker liveness) from the manifest
  fsck    verify every shard's checksums offline; -repair quarantines damage and re-queues units

Run 'campaign <subcommand> -h' for the subcommand's flags.

A campaign directory holds manifest.json, shards/*.h5l and the lease
store's claims/ + results/. Kill the process at any time;
'campaign resume -dir DIR' skips completed chunks and re-runs only
in-flight or failed ones, producing the same selections as an
uninterrupted run. A campaign runs as a coordinator plus -workers
in-process workers claiming chunks through a lease-aware store; more
workers join with 'campaign worker -dir DIR', and killed workers'
units are reassigned on lease expiry with the same byte-identity
guarantee. Add -listen ADDR to also serve the lease protocol over
HTTP, and join workers from hosts with no shared filesystem via
'campaign worker -coordinator http://host:port'.
`)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaign: ")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	switch flag.Arg(0) {
	case "run":
		cmdRun(flag.Args()[1:])
	case "resume":
		cmdResume(flag.Args()[1:])
	case "worker":
		cmdWorker(flag.Args()[1:])
	case "status":
		cmdStatus(flag.Args()[1:])
	case "fsck":
		cmdFsck(flag.Args()[1:])
	default:
		log.Printf("unknown subcommand %q", flag.Arg(0))
		usage()
		os.Exit(2)
	}
}

// interruptibleContext cancels on SIGINT/SIGTERM. The context is
// threaded through docking and the scoring engine, so a ctrl-C stops
// the campaign within one inference batch and leaves a clean resume
// point (interrupted units stay in-flight and re-run on resume).
func interruptibleContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory (required; must not already hold a campaign)")
	targets := fs.String("targets", "", "comma-separated binding sites (default: all four)")
	scorers := fs.String("scorers", "coherent", "comma-separated scorer set, primary first: "+strings.Join(experiments.ScorerNames(), "|"))
	n := fs.Int("n", 48, "compounds in the screening deck")
	chunk := fs.Int("chunk", 12, "compounds per work unit")
	workers := fs.Int("workers", 2, "in-process workers, so concurrently running units (0: coordinator only; attach workers with `campaign worker`)")
	loaders := fs.Int("loaders", 0, "data loaders per rank inside each unit's scoring job — the featurization/inference balance, recorded in the manifest (0 = engine default)")
	precision := fs.String("precision", "f64", "engine arithmetic: f64 (reference) or f32 (fast path), recorded in the manifest")
	top := fs.Int("top", 8, "compounds selected per target")
	failprob := fs.Float64("failprob", 0, "injected per-job failure probability (paper: ~0.03 at 4 nodes)")
	seed := fs.Int64("seed", 1, "campaign seed (docking + failure dice; never the scores)")
	full := fs.Bool("full", false, "train the scoring model at the full budget")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "heartbeat TTL before a worker's units are reassigned")
	listen := fs.String("listen", "", "also serve the lease protocol over HTTP on this address (host:port) so workers on other hosts can join with -coordinator")
	fs.Parse(args)
	if *dir == "" {
		log.Fatal("run: -dir is required")
	}

	cfg := campaign.DefaultConfig()
	if *targets != "" {
		cfg.Targets = strings.Split(*targets, ",")
	}
	cfg.Compounds = *n
	cfg.ChunkSize = *chunk
	cfg.Workers = *workers
	if *loaders > 0 {
		cfg.Job.LoadersPerRank = *loaders
	}
	cfg.Job.Precision = campaign.Precision(*precision)
	cfg.TopN = *top
	cfg.Job.FailureProb = *failprob
	cfg.Seed = *seed
	cfg.ModelScale = "smoke"
	if *full {
		cfg.ModelScale = "full"
	}

	fmt.Printf("building scorer set %q (scale=%s)...\n", *scorers, cfg.ModelScale)
	set, err := experiments.ScorersFromSpec(scaleOf(cfg.ModelScale), *scorers)
	if err != nil {
		log.Fatal(err)
	}

	c, err := campaign.New(*dir, cfg, set)
	if err != nil {
		log.Fatal(err)
	}
	execute(c, *workers, *leaseTTL, *listen)
}

func cmdResume(args []string) {
	fs := flag.NewFlagSet("campaign resume", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory to resume (required)")
	precision := fs.String("precision", "", "engine arithmetic the resume expects (f64|f32); must match the manifest (default: accept the manifest's)")
	workers := fs.Int("workers", 0, "in-process workers (default: the manifest's count; 0: coordinator only, attach workers with `campaign worker`)")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "heartbeat TTL before a worker's units are reassigned")
	listen := fs.String("listen", "", "also serve the lease protocol over HTTP on this address (host:port) so workers on other hosts can join with -coordinator")
	fs.Parse(args)
	if *dir == "" {
		log.Fatal("resume: -dir is required")
	}
	st, err := campaign.ReadStatus(*dir)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := campaign.ReadConfig(*dir)
	if err != nil {
		log.Fatal(err)
	}
	scale := "smoke"
	if cfg.ModelScale != "" {
		scale = cfg.ModelScale
	}
	fmt.Printf("resuming %s: %d/%d units done, rebuilding scorer set %v (scale=%s, precision=%s)...\n",
		st.Name, st.Done, st.Total, cfg.Scorers, scale, st.Precision)
	set, err := experiments.ScorersByName(scaleOf(scale), cfg.Scorers)
	if err != nil {
		log.Fatal(err)
	}
	var opts []campaign.LoadOption
	if *precision != "" {
		opts = append(opts, campaign.WithPrecision(campaign.Precision(*precision)))
	}
	c, err := campaign.Load(*dir, set, opts...)
	if err != nil {
		log.Fatal(err)
	}
	n := cfg.Workers
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			n = *workers
		}
	})
	execute(c, n, *leaseTTL, *listen)
}

// cmdWorker attaches one worker process to an existing campaign: it
// rebuilds the manifest's scorer set deterministically, opens the
// campaign read-only (workers never write the manifest) and runs the
// claim → execute → ack loop until every unit settles. With -dir the
// lease store is the shared campaign directory; with -coordinator the
// worker needs no shared filesystem at all — it mirrors the manifest
// from the coordinator's HTTP server into a local scratch directory,
// claims units over the wire, and ships shard bytes back before
// acking.
func cmdWorker(args []string) {
	fs := flag.NewFlagSet("campaign worker", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory to attach to (shared-filesystem mode)")
	coordinator := fs.String("coordinator", "", "coordinator base URL, e.g. http://host:8765 (multi-host mode; no shared filesystem needed)")
	scratch := fs.String("scratch", "", "multi-host: local scratch directory for the mirrored manifest and staged shards (default: a fresh temp dir)")
	id := fs.String("id", "", "worker ID recorded in claims and the manifest (default: host-pid)")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "heartbeat TTL; must match the coordinator's")
	fs.Parse(args)
	if (*dir == "") == (*coordinator == "") {
		log.Fatal("worker: exactly one of -dir (shared filesystem) or -coordinator URL (multi-host) is required")
	}

	campDir := *dir
	var store campaign.Dispatcher
	var client *dispatchhttp.Client
	if *coordinator != "" {
		local := *scratch
		if local == "" {
			tmp, err := os.MkdirTemp("", "campaign-worker-*")
			if err != nil {
				log.Fatal(err)
			}
			local = tmp
		}
		cl, err := dispatchhttp.NewClient(*coordinator, local, dispatchhttp.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mirroring campaign from %s into %s...\n", *coordinator, local)
		if err := cl.MirrorCampaign(); err != nil {
			log.Fatal(err)
		}
		campDir = local
		store = cl
		client = cl
	} else {
		store = campaign.NewDispatchStore(campDir, nil)
	}

	cfg, err := campaign.ReadConfig(campDir)
	if err != nil {
		log.Fatal(err)
	}
	scale := "smoke"
	if cfg.ModelScale != "" {
		scale = cfg.ModelScale
	}
	fmt.Printf("worker attaching to %s: rebuilding scorer set %v (scale=%s)...\n", campDir, cfg.Scorers, scale)
	set, err := experiments.ScorersByName(scaleOf(scale), cfg.Scorers)
	if err != nil {
		log.Fatal(err)
	}
	c, err := campaign.Attach(campDir, set)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := interruptibleContext()
	defer stop()
	w := &dispatch.Worker{
		ID:    *id,
		Camp:  c,
		Store: store,
		Lease: campaign.LeaseOptions{TTL: *leaseTTL},
		OnEvent: func(ev dispatch.Event) {
			if ev.Kind == dispatch.EventAcked {
				fmt.Printf("  worker %s: unit %s acked (epoch %d)\n", ev.Worker, ev.Unit, ev.Epoch)
			}
		},
	}
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Fatal(err)
	}
	if client != nil {
		if s := client.Stats(); s.Retries > 0 {
			fmt.Printf("network: %d request retr%s, %d backoff sleep(s)\n",
				s.Retries, plural(s.Retries, "y", "ies"), s.Backoffs)
		}
	}
	fmt.Println("worker done: campaign settled")
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// execute runs (or continues) a campaign: the coordinator in this
// process plus n in-process workers sharing its handle. The campaign
// handle must come from New or Load (the coordinator is the manifest
// writer). A non-empty listen address additionally serves the lease
// protocol over HTTP for workers on hosts that do not share the
// campaign directory. It prints per-unit progress, the final
// selections and the two-stage confirmation summary.
func execute(c *campaign.Campaign, n int, leaseTTL time.Duration, listen string) {
	ctx, stop := interruptibleContext()
	defer stop()
	if listen != "" {
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			log.Fatalf("listen %s: %v", listen, err)
		}
		srv := &http.Server{Handler: dispatchhttp.NewServer(c.Dir(), nil).Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("serving dispatch on http://%s — join from any host with `campaign worker -coordinator http://<this-host>:%d`\n",
			ln.Addr(), ln.Addr().(*net.TCPAddr).Port)
	}
	if n == 0 {
		fmt.Printf("coordinator only: attach workers with `campaign worker -dir %s`\n", c.Dir())
	}
	total := len(c.Units())
	lease := campaign.LeaseOptions{TTL: leaseTTL}
	co := &dispatch.Coordinator{
		Camp:  c,
		Lease: lease,
		OnSync: func(rep campaign.SyncReport) {
			// rep.Done counts this pass's folds; number them in order.
			done := rep.Done
			for _, rec := range rep.Completed {
				if rec.Err == "" {
					done--
				}
			}
			for _, rec := range rep.Completed {
				if rec.Err != "" {
					fmt.Printf("  unit %-18s failed after %d attempt(s): %s\n", rec.Unit, rec.Attempts, rec.Err)
					continue
				}
				done++
				fmt.Printf("  unit %-18s done: %4d poses (%d skipped, %d attempt(s))  [%d/%d]\n",
					rec.Unit, rec.Poses, rec.Skipped, rec.Attempts, done, total)
			}
			for _, u := range rep.Reassigned {
				fmt.Printf("  lease expired: unit %s reassigned\n", u)
			}
		},
	}
	store := campaign.NewDispatchStore(c.Dir(), nil)
	res, err := dispatch.RunLocal(ctx, co, n, func(i int) *dispatch.Worker {
		return &dispatch.Worker{ID: dispatch.WorkerID(i), Camp: c, Store: store, Lease: lease}
	})
	if err != nil {
		if errors.Is(err, campaign.ErrInterrupted) {
			fmt.Printf("\ninterrupted — resume with: campaign resume -dir %s\n", c.Dir())
			os.Exit(3)
		}
		log.Fatal(err)
	}
	printRunStats(co.RunStats())
	printResult(res)
}

func printRunStats(rs cluster.RunStats) {
	if rs.Units == 0 {
		return
	}
	fmt.Printf("\nrun: %d units, %d poses in %v (%.1f poses/s), peak %d in flight, %d reassignment(s)\n",
		rs.Units, rs.PosesScored, rs.Makespan.Round(time.Millisecond), rs.PosesPerSecond(), rs.PeakUnits, rs.Reassignments)
	for _, w := range rs.PerWorker {
		fmt.Printf("  %-12s %3d units  %6d poses  busy %v\n", w.Worker, w.Units, w.Poses, w.Busy.Round(time.Millisecond))
	}
}

func cmdStatus(args []string) {
	fs := flag.NewFlagSet("campaign status", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory (filesystem mode)")
	coordinator := fs.String("coordinator", "", "coordinator base URL to query instead of a local directory (multi-host mode)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of the human summary (one Status object; ops tooling and the serve /v1/status handler consume the same shape)")
	fs.Parse(args)
	if (*dir == "") == (*coordinator == "") {
		log.Fatal("status: exactly one of -dir or -coordinator URL is required")
	}
	var st campaign.Status
	var err error
	if *coordinator != "" {
		cl, cerr := dispatchhttp.NewClient(*coordinator, "", dispatchhttp.Options{})
		if cerr != nil {
			log.Fatal(cerr)
		}
		st, err = cl.Status()
	} else {
		st, err = campaign.ReadStatus(*dir)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			log.Fatal(err)
		}
		return
	}
	printStatus(st)
}

func cmdFsck(args []string) {
	fs := flag.NewFlagSet("campaign fsck", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory to verify (required; detach workers first)")
	repair := fs.Bool("repair", false, "quarantine damaged shards and re-queue their units for the next resume")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	fs.Parse(args)
	if *dir == "" {
		log.Fatal("fsck: -dir is required")
	}
	rep, err := campaign.Fsck(*dir, *repair)
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	} else {
		printFsck(rep)
	}
	// Exit 1 when damage was found but left in place, so scripts can
	// gate on it; informational findings (orphan shards) don't fail.
	if !*repair {
		for _, p := range rep.Problems {
			if p.Kind == "corrupt-shard" || p.Kind == "missing-shard" {
				os.Exit(1)
			}
		}
	}
}

func printFsck(rep campaign.FsckReport) {
	fmt.Printf("fsck %s: %d unit(s), %d shard(s) verified\n", rep.Dir, rep.UnitsChecked, rep.ShardsChecked)
	for _, p := range rep.Problems {
		fmt.Printf("  [%s] %s\n", p.Kind, p.Detail)
	}
	for _, q := range rep.Quarantined {
		fmt.Printf("  quarantined: %s\n", q)
	}
	if len(rep.Repaired) > 0 {
		fmt.Printf("re-queued %d unit(s) for the next resume: %s\n", len(rep.Repaired), strings.Join(rep.Repaired, ", "))
	}
	if rep.Corruptions > 0 || rep.Repairs > 0 {
		fmt.Printf("lifetime counters: %d corruption(s), %d repair(s)\n", rep.Corruptions, rep.Repairs)
	}
	if rep.Clean() {
		fmt.Println("clean: every done unit's shards verified")
	}
}

func printResult(res *campaign.Result) {
	fmt.Println()
	for _, tr := range res.PerTarget {
		fmt.Printf("%s: screened %d compounds, selected %d (primary hits %d, confirmed %d)\n",
			tr.Target, tr.Screened, len(tr.Selections), tr.PrimaryHits, tr.Confirmed)
		for _, s := range tr.Selections {
			fmt.Printf("  %-28s  pK %5.2f  vina %7.2f  combined %6.2f  inhib %5.1f%%\n",
				s.CompoundID, s.Fusion, s.Vina, s.Combined, s.Inhibition)
		}
	}
	fmt.Printf("\ncampaign complete: %d tested, %d primary hits (%.1f%%), %d confirmed\n",
		res.Tested, res.Hits, 100*res.HitRate(), res.Confirmed)
}

func printStatus(st campaign.Status) {
	fmt.Printf("campaign %s (%s)\n", st.Name, st.Dir)
	switch st.Backend {
	case "http":
		fmt.Printf("dispatch: http via coordinator %s\n", st.Coordinator)
	case "fs":
		fmt.Println("dispatch: fs (shared campaign directory)")
	}
	fmt.Printf("scorers: %s\n", strings.Join(st.Scorers, ", "))
	fmt.Printf("precision: %s\n", st.Precision)
	fmt.Printf("deck: %d compounds; units: %d done, %d in-flight, %d failed, %d pending of %d; poses scored: %d\n",
		st.DeckSize, st.Done, st.InFlight, st.Failed, st.Pending, st.Total, st.Poses)
	if st.Corruptions > 0 || st.Repairs > 0 {
		fmt.Printf("integrity: %d corrupt shard(s) detected and quarantined, %d repair re-queue(s) granted\n",
			st.Corruptions, st.Repairs)
	}
	for _, ts := range st.PerTarget {
		fmt.Printf("  %-12s %d/%d units  %6d poses\n", ts.Target, ts.Done, ts.Total, ts.Poses)
	}
	if len(st.Workers) > 0 {
		fmt.Printf("workers (%d reassignment(s)):\n", st.Reassignments)
		for _, w := range st.Workers {
			held := "-"
			if len(w.Leases) > 0 {
				held = strings.Join(w.Leases, ",")
			}
			net := ""
			if w.DispatchRetries > 0 || w.DispatchBackoffs > 0 {
				net = fmt.Sprintf("  net: %d retries/%d backoffs", w.DispatchRetries, w.DispatchBackoffs)
			}
			fmt.Printf("  %-14s last beat %s ago  %2d units (%.2f/s)  %6d poses  holds: %s%s\n",
				w.ID, time.Since(w.LastBeat).Round(time.Second), w.UnitsDone, w.UnitsPerSec, w.PosesDone, held, net)
		}
	}
	if st.Finalized {
		fmt.Println("state: finalized (selections recorded in manifest)")
	} else if st.Done == st.Total {
		fmt.Println("state: scored, awaiting finalize (run resume)")
	} else {
		fmt.Println("state: in progress (run resume to continue)")
	}
}

func scaleOf(name string) experiments.Scale {
	if name == "full" {
		return experiments.Full
	}
	return experiments.Smoke
}
