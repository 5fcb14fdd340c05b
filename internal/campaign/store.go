package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
	"sync"
)

// DispatchStore is a worker process's handle on the shared
// lease-aware manifest store. Today the store is the campaign
// directory on a shared filesystem; the store API is the RPC seam —
// a multi-host backend (an HTTP coordinator, an object store)
// replaces this implementation without touching the worker loop.
//
// A store never writes the manifest. It reads it for the unit grid
// and current claim epochs, and writes only worker-owned files:
// claim files (exclusive create), heartbeat renewals, and result
// acks.
//
// The store decodes the manifest only when its bytes change. Every
// call reads the file into a buffer the store keeps; when the bytes
// equal the ones it last decoded, it reuses that decode. The check
// cannot go stale — equal bytes decode to an equal manifest — and an
// unchanged manifest costs one read and one compare, no allocation.
// One store may serve any number of goroutines.
type DispatchStore struct {
	dir     string
	manPath string
	clock   Clock

	mu  sync.Mutex
	buf []byte    // the next read's buffer
	raw []byte    // the bytes man was decoded from
	man *Manifest // read-only: shared by every caller
}

// NewDispatchStore opens the filesystem store backing a campaign
// directory. A nil clock means the system clock.
func NewDispatchStore(dir string, clock Clock) *DispatchStore {
	if clock == nil {
		clock = SystemClock{}
	}
	return &DispatchStore{dir: dir, manPath: manifestPath(dir), clock: clock}
}

// Dir returns the campaign directory the store is backed by.
func (s *DispatchStore) Dir() string { return s.dir }

// Claim leases the first unfinished, unclaimed unit to workerID and
// returns the claim plus the unit's manifest record. The exclusive
// creation of the claim file is the atomic test-and-set: of N workers
// racing for one unit, exactly one wins; the rest move to the next
// unit. Returns ErrNoWork when every unfinished unit is currently
// leased, ErrAllDone when none are unfinished.
func (s *DispatchStore) Claim(workerID string) (*ClaimRecord, *UnitRecord, error) {
	man, err := s.manifest()
	if err != nil {
		return nil, nil, err
	}
	unfinished := 0
	for i := range man.Units {
		u := man.Units[i]
		if u.State == UnitDone || u.State == UnitFailed {
			continue
		}
		unfinished++
		path := claimPath(s.dir, u.ID, u.Epoch)
		// A unit whose claim file exists is leased (possibly a
		// tombstone awaiting expiry): skip it before paying for an
		// fsync'd temp file that would only lose the link below.
		if _, err := os.Lstat(path); err == nil {
			continue
		}
		now := s.clock.Now()
		rec := ClaimRecord{Unit: u.ID, Epoch: u.Epoch, Worker: workerID, Granted: now, Heartbeat: now}
		err := createExclusiveJSON(path, rec)
		if errors.Is(err, fs.ErrExist) {
			continue // a racing claimer linked it first
		}
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: claim %s: %w", u.ID, err)
		}
		u.Shards = slices.Clone(u.Shards) // the record must not alias the shared manifest
		return &rec, &u, nil
	}
	if unfinished == 0 {
		return nil, nil, ErrAllDone
	}
	return nil, nil, ErrNoWork
}

// Heartbeat renews the claim's lease by atomically rewriting its
// claim file with a fresh timestamp. It first checks the manifest's
// current epoch for the unit: if the coordinator has already fenced
// this claim (lease expired, unit reassigned), it returns
// ErrLeaseLost so the worker stops spending compute on a unit it no
// longer owns. The check is advisory — the authoritative fence is the
// coordinator's epoch comparison at fold time.
func (s *DispatchStore) Heartbeat(c *ClaimRecord) error {
	if fenced, err := s.fenced(c); err != nil {
		return err
	} else if fenced {
		return ErrLeaseLost
	}
	c.Heartbeat = s.clock.Now()
	return WriteJSONAtomic(claimPath(s.dir, c.Unit, c.Epoch), *c)
}

// Complete acks a finished unit: the result record is written
// atomically under the claim's epoch, then the manifest is consulted
// — if the claim was fenced while the worker was finishing, Complete
// returns ErrLeaseLost. The record is written regardless: acks are
// always epoch-named, and the coordinator folds only the record
// matching the unit's current epoch, so a zombie's late ack is
// ignored rather than double-counted.
func (s *DispatchStore) Complete(c *ClaimRecord, out UnitOutcome) error {
	rec := ResultRecord{
		Unit:     c.Unit,
		Epoch:    c.Epoch,
		Worker:   c.Worker,
		Poses:    out.Poses,
		Skipped:  out.Skipped,
		Attempts: out.Attempts,
		Shards:   out.Shards,
		Started:  c.Granted,
		Finished: s.clock.Now(),
	}
	if err := WriteJSONAtomic(resultPath(s.dir, c.Unit, c.Epoch), rec); err != nil {
		return err
	}
	if fenced, err := s.fenced(c); err == nil && fenced {
		return ErrLeaseLost
	}
	return nil
}

// Fail acks a unit that exhausted its retry budget, recording the
// attempts consumed so the next run's failure-injection seeds
// advance. Epoch fencing works exactly as in Complete.
func (s *DispatchStore) Fail(c *ClaimRecord, out UnitOutcome, unitErr error) error {
	rec := ResultRecord{
		Unit:     c.Unit,
		Epoch:    c.Epoch,
		Worker:   c.Worker,
		Attempts: out.Attempts,
		Started:  c.Granted,
		Finished: s.clock.Now(),
		Err:      unitErr.Error(),
	}
	if err := WriteJSONAtomic(resultPath(s.dir, c.Unit, c.Epoch), rec); err != nil {
		return err
	}
	if fenced, err := s.fenced(c); err == nil && fenced {
		return ErrLeaseLost
	}
	return nil
}

// fenced reports whether the manifest's epoch for the claim's unit
// has moved past the claim.
func (s *DispatchStore) fenced(c *ClaimRecord) (bool, error) {
	man, err := s.manifest()
	if err != nil {
		return false, err
	}
	for i := range man.Units {
		if man.Units[i].ID == c.Unit {
			return man.Units[i].Epoch > c.Epoch, nil
		}
	}
	return false, fmt.Errorf("campaign: claim for unknown unit %s", c.Unit)
}

// manifest returns the current manifest, decoding the file only when
// its bytes differ from the ones the store last decoded. The result
// is shared: callers must not write to it.
func (s *DispatchStore) manifest() (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := readFileInto(s.manPath, s.buf)
	s.buf = data
	if err != nil {
		return nil, fmt.Errorf("campaign: no manifest in %s: %w", s.dir, err)
	}
	if s.man != nil && bytes.Equal(data, s.raw) {
		return s.man, nil
	}
	man, err := parseManifest(s.dir, data)
	if err != nil {
		return nil, err
	}
	// Keep the decoded bytes; the old ones become the next read's
	// buffer.
	s.man, s.raw, s.buf = man, data, s.raw
	return man, nil
}

// readFileInto reads the file at path into buf[:0], growing buf only
// when the file does not fit. The buffer is sized from the open
// file's size, so an unchanged file reads with no allocation.
func readFileInto(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	buf = buf[:0]
	// One byte past the size, so the read that reports EOF needs no
	// growth.
	if fi, err := f.Stat(); err == nil && int(fi.Size()) >= cap(buf) {
		buf = make([]byte, 0, int(fi.Size())+bytes.MinRead)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, bytes.MinRead)
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
