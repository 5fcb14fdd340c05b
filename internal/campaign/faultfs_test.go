package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"deepfusion/internal/h5lite"
)

// shardFixture writes a small valid shard to path (no faults active)
// and returns its on-disk bytes.
func shardFixture(t *testing.T, path string) []byte {
	t.Helper()
	f := h5lite.New()
	g := f.Root().Group("fixture")
	g.SetFloats("scores", []float64{1, 2, 3, 4})
	g.SetStrings("ids", []string{"a", "b", "c", "d"})
	if err := WriteShardFile(path, f); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDiskFaultWriteKinds pins each write-side fault's contract
// against the commit primitive: visible failures leave no file,
// silent corruptions report success and land damaged bytes that
// read-side CRC verification then catches.
func TestDiskFaultWriteKinds(t *testing.T) {
	dir := t.TempDir()
	good := shardFixture(t, filepath.Join(dir, "good.h5l"))

	t.Run("enospc", func(t *testing.T) {
		path := filepath.Join(dir, "enospc.h5l")
		defer SetDiskFaults(NewDiskFaults(nil, DiskFault{Op: "write", Kind: FaultENOSPC}))()
		if err := commitBytes(path, good); !errors.Is(err, ErrInjectedENOSPC) {
			t.Fatalf("commit under enospc returned %v, want ErrInjectedENOSPC", err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("enospc left a file behind (stat err %v)", err)
		}
	})
	t.Run("rename-fail", func(t *testing.T) {
		path := filepath.Join(dir, "rename.h5l")
		defer SetDiskFaults(NewDiskFaults(nil, DiskFault{Op: "rename", Kind: FaultRenameFail}))()
		if err := commitBytes(path, good); !errors.Is(err, ErrInjectedRename) {
			t.Fatalf("commit under rename-fail returned %v, want ErrInjectedRename", err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("failed rename left the destination behind (stat err %v)", err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if bytes.Contains([]byte(e.Name()), []byte("rename.h5l.tmp")) {
				t.Fatalf("temp file %s not cleaned up after rename fault", e.Name())
			}
		}
	})
	t.Run("torn-write-reports-success", func(t *testing.T) {
		path := filepath.Join(dir, "torn.h5l")
		defer SetDiskFaults(NewDiskFaults(nil, DiskFault{Op: "write", Kind: FaultTornWrite, Byte: 10}))()
		if err := commitBytes(path, good); err != nil {
			t.Fatalf("torn write must look successful to the writer, got %v", err)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(onDisk) != 10 || !bytes.Equal(onDisk, good[:10]) {
			t.Fatalf("torn write landed %d bytes, want the first 10", len(onDisk))
		}
		if _, err := ReadShardFile(path); !errors.Is(err, h5lite.ErrCorrupt) {
			t.Fatalf("reading the torn shard returned %v, want ErrCorrupt", err)
		}
	})
	t.Run("bit-flip-reports-success", func(t *testing.T) {
		path := filepath.Join(dir, "flip.h5l")
		defer SetDiskFaults(NewDiskFaults(nil, DiskFault{Op: "write", Kind: FaultBitFlip, Byte: len(good) / 2}))()
		if err := commitBytes(path, good); err != nil {
			t.Fatalf("bit-flip write must look successful to the writer, got %v", err)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(onDisk, good) {
			t.Fatal("bit-flip fault landed pristine bytes")
		}
		if _, err := ReadShardFile(path); !errors.Is(err, h5lite.ErrCorrupt) {
			t.Fatalf("reading the flipped shard returned %v, want ErrCorrupt", err)
		}
	})
}

// TestDiskFaultReadKinds pins the read-side faults: the observed
// bytes are damaged, the file is untouched, and the CRC layer
// converts the damage into ErrCorrupt instead of wrong values.
func TestDiskFaultReadKinds(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.h5l")
	good := shardFixture(t, path)

	defer SetDiskFaults(NewDiskFaults(nil,
		DiskFault{Op: "read", Kind: FaultShortRead, Byte: 7},
		DiskFault{Op: "read", Kind: FaultBitFlip, Byte: 3},
	))()
	for _, kind := range []DiskFaultKind{FaultShortRead, FaultBitFlip} {
		if _, err := ReadShardFile(path); !errors.Is(err, h5lite.ErrCorrupt) {
			t.Fatalf("%s read returned %v, want ErrCorrupt", kind, err)
		}
	}
	// Transient fault: the plan is drained, the file is pristine, the
	// next read succeeds.
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, good) {
		t.Fatalf("read faults modified the file on disk (err %v)", err)
	}
	if _, err := ReadShardFile(path); err != nil {
		t.Fatalf("read after plan drained failed: %v", err)
	}
}

// TestDiskFaultPlanMatching pins the plan semantics: op + path
// substring + not-before gating, first-match exactly-once
// consumption, and the injection log.
func TestDiskFaultPlanMatching(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(5000, 0)
	fc := NewFakeClock(t0)
	faults := NewDiskFaults(fc,
		DiskFault{Op: "write", Kind: FaultENOSPC, Path: "target.h5l"},
		DiskFault{Op: "write", Kind: FaultENOSPC, Path: "later.h5l", NotBefore: t0.Add(time.Minute)},
	)
	defer SetDiskFaults(faults)()

	// Wrong path: passes through untouched.
	if err := commitBytes(filepath.Join(dir, "other.h5l"), []byte("x")); err != nil {
		t.Fatalf("non-matching path hit a fault: %v", err)
	}
	// Gated fault: not yet eligible on the fake clock.
	if err := commitBytes(filepath.Join(dir, "later.h5l"), []byte("x")); err != nil {
		t.Fatalf("not-before fault fired early: %v", err)
	}
	// Matching path: fires exactly once.
	if err := commitBytes(filepath.Join(dir, "target.h5l"), []byte("x")); !errors.Is(err, ErrInjectedENOSPC) {
		t.Fatalf("matching path got %v, want injected ENOSPC", err)
	}
	if err := commitBytes(filepath.Join(dir, "target.h5l"), []byte("x")); err != nil {
		t.Fatalf("consumed fault fired twice: %v", err)
	}
	// Advance the clock: the gated fault becomes eligible.
	fc.Advance(2 * time.Minute)
	if err := commitBytes(filepath.Join(dir, "later.h5l"), []byte("x")); !errors.Is(err, ErrInjectedENOSPC) {
		t.Fatalf("gated fault after advance got %v, want injected ENOSPC", err)
	}

	if n := faults.Remaining(); n != 0 {
		t.Fatalf("%d faults never fired", n)
	}
	log := faults.Injected()
	if len(log) != 2 {
		t.Fatalf("injection log has %d entries, want 2", len(log))
	}
	if !log[0].At.Equal(t0) || !log[1].At.Equal(t0.Add(2*time.Minute)) {
		t.Fatalf("injection timestamps %v / %v not stamped from the plan clock", log[0].At, log[1].At)
	}
	if log[1].Target != filepath.Join(dir, "later.h5l") {
		t.Fatalf("injection log target %q, want the faulted path", log[1].Target)
	}
}
