package dispatch_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deepfusion/internal/campaign"
	. "deepfusion/internal/campaign/dispatch"
)

const workerDirEnv = "DEEPFUSION_TEST_WORKER_DIR"

// RunProcesses runs a campaign across real OS processes: the
// coordinator in this process, plus n worker processes started as
// `exe workerArgs(i)...` with stdout/stderr inherited, each expected to
// run the worker loop against the shared campaign directory and exit 0
// when the campaign settles. If the coordinator stops first (error or
// interrupt), the workers' context is cancelled so they die promptly
// and their leases expire for the next run.
func RunProcesses(ctx context.Context, co *Coordinator, n int, exe string, workerArgs func(i int) []string) (*campaign.Result, error) {
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(wctx, exe, workerArgs(i)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			stopWorkers()
			wg.Wait()
			return nil, fmt.Errorf("start worker %v: %w", workerArgs(i), err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker exit is reported through the manifest (units it
			// acked) and lease expiry (units it did not).
			_ = cmd.Wait()
		}()
	}
	res, err := co.Run(ctx)
	stopWorkers()
	wg.Wait()
	return res, err
}

// TestWorkerProcessHelper is not a test: it is the body of the forked
// worker processes TestDistributedProcessesByteIdentical launches by
// re-executing the test binary with -test.run pinned to this
// function. It attaches to the campaign directory named in the
// environment, runs the claim loop until the campaign settles, and
// exits.
func TestWorkerProcessHelper(t *testing.T) {
	dir := os.Getenv(workerDirEnv)
	if dir == "" {
		t.Skip("subprocess helper; driven by TestDistributedProcessesByteIdentical")
	}
	h, err := campaign.Attach(dir, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{
		Camp:  h, // ID defaults to host-pid: unique per forked process
		Store: campaign.NewDispatchStore(dir, nil),
		Lease: campaign.LeaseOptions{TTL: 30 * time.Second},
		Poll:  25 * time.Millisecond,
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDistributedProcessesByteIdentical drives the real multi-process
// topology — coordinator in-process, two forked worker OS processes
// claiming units through the shared directory — and pins the
// distributed result byte-identical to the uninterrupted
// single-process reference. This is the process-boundary complement
// of the in-process chaos test: real fork/exec, real wall clock, no
// fault injection.
func TestDistributedProcessesByteIdentical(t *testing.T) {
	cfg := tinyConfig()
	refDir, refBytes := referenceRun(t, cfg)

	dir := filepath.Join(t.TempDir(), "dist")
	c, err := campaign.New(dir, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(workerDirEnv, dir) // inherited by the forked test binary

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	co := &Coordinator{
		Camp:  c,
		Lease: campaign.LeaseOptions{TTL: 30 * time.Second},
		Poll:  25 * time.Millisecond,
	}
	res, err := RunProcesses(ctx, co, 2, os.Args[0], func(i int) []string {
		return []string{"-test.run=TestWorkerProcessHelper$", "-test.v=false"}
	})
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if res == nil || len(res.PerTarget) != len(cfg.Targets) {
		t.Fatalf("result = %+v, want %d targets", res, len(cfg.Targets))
	}

	if got := selectionBytes(t, dir); !bytes.Equal(got, refBytes) {
		t.Fatalf("multi-process selections differ from the single-process reference:\ngot:\n%s\nwant:\n%s", got, refBytes)
	}

	st, err := campaign.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	refSt, err := campaign.ReadStatus(refDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != st.Total || st.Poses != refSt.Poses {
		t.Fatalf("status = %d/%d done, %d poses; want all done with %d poses", st.Done, st.Total, st.Poses, refSt.Poses)
	}
	if len(st.Workers) == 0 {
		t.Fatal("manifest recorded no workers; liveness table never folded")
	}
	for _, w := range st.Workers {
		if w.LastBeat.IsZero() || w.FirstSeen.IsZero() {
			t.Fatalf("worker %s has no liveness timestamps: %+v", w.ID, w)
		}
	}
	rs := co.RunStats()
	if rs.Units != st.Total || rs.PosesScored != st.Poses {
		t.Fatalf("run stats = %d units / %d poses, manifest %d / %d", rs.Units, rs.PosesScored, st.Total, st.Poses)
	}
	if rs.Makespan <= 0 {
		t.Fatalf("run stats makespan = %v, want > 0", rs.Makespan)
	}
}

// TestWorkerAttachRefusesWrongScorers pins Attach's safety check
// across the process boundary: a worker built with a different scorer
// set must be refused before it can claim anything.
func TestWorkerAttachRefusesWrongScorers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	if _, err := campaign.New(dir, tinyConfig(), tinyScorers()); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Attach(dir, nil); err == nil {
		t.Fatal("Attach with an empty scorer set must be refused")
	}
}
