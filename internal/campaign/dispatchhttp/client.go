package dispatchhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"deepfusion/internal/campaign"
)

// Options tunes a dispatch client. The zero value is production-ready.
type Options struct {
	// Clock drives the retry backoff sleeps. Nil means the system
	// clock; tests inject a FakeClock so no retry ever sleeps wall
	// time.
	Clock campaign.Clock
	// Timeout is the per-call deadline: one HTTP round trip slower
	// than this counts as a transport failure and is retried. Zero
	// means 10s.
	Timeout time.Duration
	// MaxAttempts bounds the tries per call, first included. Zero
	// means 5.
	MaxAttempts int
	// Backoff is the sleep before the first retry, doubled per
	// attempt up to BackoffMax and jittered to [0.5x, 1.5x). Zeros
	// mean 100ms and 5s.
	Backoff    time.Duration
	BackoffMax time.Duration
	// Transport overrides the HTTP transport — the fault-injection
	// seam the network chaos harness drives. Nil means
	// http.DefaultTransport.
	Transport http.RoundTripper
	// JitterSeed seeds the backoff jitter. Zero means 1.
	JitterSeed int64
}

func (o Options) withDefaults() Options {
	if o.Clock == nil {
		o.Clock = campaign.SystemClock{}
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Transport == nil {
		o.Transport = http.DefaultTransport
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = 1
	}
	return o
}

// ClientStats is a client's cumulative robustness telemetry.
type ClientStats struct {
	// Retries counts re-sent requests (attempts after the first).
	Retries int
	// Backoffs counts backoff sleeps taken; equal to Retries unless a
	// call gave up mid-backoff.
	Backoffs int
}

// Client is the worker-side HTTP dispatch backend: a
// campaign.Dispatcher whose calls cross the network to a
// coordinator's Server. Transport errors, timeouts and 5xx responses
// are retried with capped exponential backoff and jitter; protocol
// outcomes (no-work, all-done, lease-lost) come back as the campaign
// package's sentinel errors. Retrying is safe because every
// state-changing call is idempotent at a fixed (unit, epoch): a
// duplicated Complete re-lands the same epoch-named result record and
// folds exactly once, and a duplicated Claim at worst leases an extra
// unit whose lease simply expires. A Client is safe for concurrent
// use by a worker's claim loop and heartbeat goroutine.
type Client struct {
	base  string
	local string
	opts  Options
	http  *http.Client

	mu       sync.Mutex
	rng      *rand.Rand
	retries  int
	backoffs int
}

// NewClient builds a dispatch client for the coordinator at baseURL
// (e.g. "http://host:7700"). localDir is the worker's scratch
// campaign directory: the mirrored manifest lives there and unit
// shards are staged under its shards/ before upload.
func NewClient(baseURL, localDir string, opts Options) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("dispatchhttp: invalid coordinator URL %q", baseURL)
	}
	opts = opts.withDefaults()
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		local: localDir,
		opts:  opts,
		http:  &http.Client{Transport: opts.Transport},
		rng:   rand.New(rand.NewSource(opts.JitterSeed)),
	}, nil
}

// Stats returns the client's cumulative retry/backoff counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStats{Retries: c.retries, Backoffs: c.backoffs}
}

// jitterLocked spreads d over [0.5d, 1.5d). Callers hold c.mu.
func (c *Client) jitterLocked(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(c.rng.Int63n(int64(d)))
}

// do runs one dispatch call with the retry policy: per-attempt wall
// deadline, transport errors / timeouts / 5xx / torn response bodies
// retried after a jittered exponential backoff slept on the injected
// clock, non-5xx HTTP errors terminal. A 200 response is decoded into
// out. extra holds additional header key/value pairs (the shard
// upload's CRC), re-sent verbatim on every retry.
func (c *Client) do(worker, method, path, contentType string, body []byte, out any, extra ...string) error {
	backoff := c.opts.Backoff
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.retries++
			c.backoffs++
			sleep := c.jitterLocked(backoff)
			c.mu.Unlock()
			<-c.opts.Clock.After(sleep)
			if backoff < c.opts.BackoffMax {
				backoff *= 2
			}
		}
		err := c.attempt(worker, attempt, method, path, contentType, body, out, extra)
		if err == nil {
			return nil
		}
		var term *terminalError
		if ok := asTerminal(err, &term); ok {
			return term.err
		}
		lastErr = err
	}
	return fmt.Errorf("dispatchhttp: %s %s: giving up after %d attempts: %w", method, path, c.opts.MaxAttempts, lastErr)
}

// terminalError wraps an error the retry loop must not retry.
type terminalError struct{ err error }

func (t *terminalError) Error() string { return t.err.Error() }

func asTerminal(err error, out **terminalError) bool {
	t, ok := err.(*terminalError)
	if ok {
		*out = t
	}
	return ok
}

func (c *Client) attempt(worker string, attempt int, method, path, contentType string, body []byte, out any, extra []string) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return &terminalError{err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	c.mu.Lock()
	backoffs := c.backoffs
	c.mu.Unlock()
	req.Header.Set(headerWorker, worker)
	req.Header.Set(headerAttempt, strconv.Itoa(attempt))
	req.Header.Set(headerBackoffs, strconv.Itoa(backoffs))
	for i := 0; i+1 < len(extra); i += 2 {
		req.Header.Set(extra[i], extra[i+1])
	}

	resp, err := c.http.Do(req)
	if err != nil {
		return err // transport failure or deadline: retry
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("dispatchhttp: read response: %w", err)
	}
	if resp.StatusCode >= 500 {
		return fmt.Errorf("dispatchhttp: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
	}
	if resp.StatusCode != http.StatusOK {
		return &terminalError{err: fmt.Errorf("dispatchhttp: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))}
	}
	switch out := out.(type) {
	case nil:
	case *[]byte:
		// Raw passthrough (the manifest mirror): the bytes must land
		// verbatim, not survive a decode/re-encode round trip.
		*out = data
	default:
		if err := json.Unmarshal(data, out); err != nil {
			// A torn or duplicated-write body; treat as a lost
			// response and retry.
			return fmt.Errorf("dispatchhttp: decode response: %w", err)
		}
	}
	return nil
}

func (c *Client) doJSON(worker, path string, reqBody, out any) error {
	body, err := json.Marshal(reqBody)
	if err != nil {
		return err
	}
	return c.do(worker, http.MethodPost, path, "application/json", body, out)
}

// Claim implements campaign.Dispatcher over the wire.
func (c *Client) Claim(workerID string) (*campaign.ClaimRecord, *campaign.UnitRecord, error) {
	var resp claimResponse
	if err := c.doJSON(workerID, pathClaim, claimRequest{Worker: workerID}, &resp); err != nil {
		return nil, nil, err
	}
	switch resp.Code {
	case codeNoWork:
		return nil, nil, campaign.ErrNoWork
	case codeAllDone:
		return nil, nil, campaign.ErrAllDone
	case codeOK:
		if resp.Claim == nil || resp.Unit == nil {
			return nil, nil, fmt.Errorf("dispatchhttp: claim response missing claim/unit")
		}
		return resp.Claim, resp.Unit, nil
	default:
		return nil, nil, fmt.Errorf("dispatchhttp: claim: unknown code %q", resp.Code)
	}
}

// Heartbeat renews the lease server-side and mirrors the renewed
// record (the server stamps the renewal time) back into cl.
func (c *Client) Heartbeat(cl *campaign.ClaimRecord) error {
	var resp ackResponse
	if err := c.doJSON(cl.Worker, pathHeartbeat, ackRequest{Claim: *cl}, &resp); err != nil {
		return err
	}
	if resp.Code == codeLeaseLost {
		return campaign.ErrLeaseLost
	}
	if resp.Claim != nil {
		*cl = *resp.Claim
	}
	return nil
}

// Complete ships the unit's staged shard bytes to the coordinator,
// then acks. The order matters: the coordinator folds a unit the
// moment its result record matches the current epoch, and the
// finalize pass reads the shards the record names — so the bytes must
// be durable on the coordinator before the ack can land. Both halves
// are idempotent at (unit, epoch); a retry after a lost response
// re-uploads identical bytes and re-lands the same record.
func (c *Client) Complete(cl *campaign.ClaimRecord, out campaign.UnitOutcome) error {
	for _, rel := range out.Shards {
		if err := c.uploadShard(cl.Worker, rel); err != nil {
			return err
		}
	}
	var resp ackResponse
	if err := c.doJSON(cl.Worker, pathComplete, ackRequest{Claim: *cl, Outcome: out}, &resp); err != nil {
		return err
	}
	if resp.Code == codeLeaseLost {
		return campaign.ErrLeaseLost
	}
	return nil
}

// Fail acks a unit that exhausted its retry budget.
func (c *Client) Fail(cl *campaign.ClaimRecord, out campaign.UnitOutcome, unitErr error) error {
	var resp ackResponse
	req := ackRequest{Claim: *cl, Outcome: out, Error: unitErr.Error()}
	if err := c.doJSON(cl.Worker, pathFail, req, &resp); err != nil {
		return err
	}
	if resp.Code == codeLeaseLost {
		return campaign.ErrLeaseLost
	}
	return nil
}

// uploadShard ships one staged shard file to the coordinator, with
// the body's CRC32C in a header so the server can refuse bytes
// corrupted in flight (mismatch is a 5xx: the retry loop re-reads
// nothing, it re-sends the same staged bytes). rel is the
// campaign-relative name ExecuteUnit recorded ("shards/<name>").
func (c *Client) uploadShard(worker, rel string) error {
	name := filepath.Base(rel)
	data, err := os.ReadFile(filepath.Join(c.local, rel))
	if err != nil {
		return fmt.Errorf("dispatchhttp: read staged shard: %w", err)
	}
	crc := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
	var resp ackResponse
	if err := c.do(worker, http.MethodPut, pathShards+url.PathEscape(name), "application/octet-stream", data, &resp,
		headerShardCRC, fmt.Sprintf("%08x", crc)); err != nil {
		return err
	}
	if resp.Code != codeOK {
		return fmt.Errorf("dispatchhttp: shard upload %s: code %q", name, resp.Code)
	}
	return nil
}

// MirrorCampaign fetches the coordinator's manifest and materializes
// the client's scratch directory as an attachable campaign: the
// manifest bytes land atomically and the shard staging directory is
// created. Call once before campaign.Attach on that directory; the
// mirrored manifest is a snapshot, which is all a worker needs — the
// config and unit grid it derives the deck from are immutable, and
// live unit state is only ever read through Claim.
func (c *Client) MirrorCampaign() error {
	var data []byte
	if err := c.do("", http.MethodGet, pathManifest, "", nil, &data); err != nil {
		return err
	}
	if err := os.MkdirAll(campaign.ShardDir(c.local), 0o755); err != nil {
		return err
	}
	return campaign.WriteBytesAtomic(campaign.ManifestPath(c.local), data)
}

// Status fetches the coordinator's status view: the manifest summary
// stamped with the http backend identity and per-worker dispatch
// retry counters.
func (c *Client) Status() (campaign.Status, error) {
	var st campaign.Status
	if err := c.do("", http.MethodGet, pathStatus, "", nil, &st); err != nil {
		return campaign.Status{}, err
	}
	return st, nil
}
