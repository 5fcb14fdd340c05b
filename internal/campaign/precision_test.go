package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	. "deepfusion/internal/campaign"
)

// TestManifestRecordsPrecision pins the durable half of the precision
// knob: the manifest states what arithmetic every shard was scored
// at, explicitly, even when the caller left the knob at its zero
// value.
func TestManifestRecordsPrecision(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	cfg := tinyConfig() // Precision left empty
	if _, err := New(dir, cfg, tinyScorers()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfig(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Job.Precision != PrecisionF64 {
		t.Fatalf("manifest precision = %q, want explicit f64", got.Job.Precision)
	}
	st, err := ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Precision != "f64" {
		t.Fatalf("status precision = %q, want f64", st.Precision)
	}
}

// TestLoadRefusesPrecisionMismatch mirrors the scorer-set refusal:
// resuming a campaign at a different engine precision than its shards
// were scored at would mix f32 and f64 score columns in one
// selection, so Load must refuse the declared mismatch — and accept
// the matching declaration or an undeclared resume.
func TestLoadRefusesPrecisionMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	cfg := tinyConfig()
	cfg.Job.Precision = PrecisionF32
	if _, err := New(dir, cfg, tinyScorers()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, tinyScorers(), WithPrecision(PrecisionF64)); err == nil {
		t.Fatal("resume at f64 of an f32 campaign must be refused")
	}
	if _, err := Load(dir, tinyScorers(), WithPrecision(PrecisionF32)); err != nil {
		t.Fatalf("matching precision refused: %v", err)
	}
	// Undeclared intent accepts the manifest's recorded precision.
	if _, err := Load(dir, tinyScorers()); err != nil {
		t.Fatalf("undeclared precision refused: %v", err)
	}

	// The empty (legacy-default) declaration means f64 and must be
	// refused against an f32 manifest, but accepted against an f64 one.
	if _, err := Load(dir, tinyScorers(), WithPrecision("")); err == nil {
		t.Fatal("default-precision resume of an f32 campaign must be refused")
	}
	dir64 := filepath.Join(t.TempDir(), "camp64")
	if _, err := New(dir64, tinyConfig(), tinyScorers()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir64, tinyScorers(), WithPrecision("")); err != nil {
		t.Fatalf("default-precision resume of an f64 campaign refused: %v", err)
	}
}

// TestLegacyManifestBackfillsPrecision: manifests written before the
// precision knob carry no job.precision key; they were all scored on
// the f64 reference path and must load as explicit f64.
func TestLegacyManifestBackfillsPrecision(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	if _, err := New(dir, tinyConfig(), tinyScorers()); err != nil {
		t.Fatal(err)
	}
	// Rewrite the manifest without the precision key, as a pre-knob
	// process would have written it.
	raw, err := os.ReadFile(ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m["config"].(map[string]any)["job"].(map[string]any), "precision")
	stripped, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(stripped, []byte("precision")) {
		t.Fatal("test bug: precision key survived stripping")
	}
	if err := os.WriteFile(ManifestPath(dir), stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := ReadConfig(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Job.Precision != PrecisionF64 {
		t.Fatalf("legacy manifest loads precision %q, want backfilled f64", cfg.Job.Precision)
	}
	if _, err := Load(dir, tinyScorers(), WithPrecision(PrecisionF32)); err == nil {
		t.Fatal("f32 resume of a legacy (f64) campaign must be refused")
	}
	if _, err := Load(dir, tinyScorers(), WithPrecision(PrecisionF64)); err != nil {
		t.Fatalf("f64 resume of a legacy campaign refused: %v", err)
	}
}

// TestCampaignRunsAtF32 drives a whole campaign — docking, the
// distributed scoring jobs, shards, selection, confirmation — on the
// f32 fast path.
func TestCampaignRunsAtF32(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	cfg := tinyConfig()
	cfg.Job.Precision = PrecisionF32
	c, err := New(dir, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tested == 0 {
		t.Fatal("f32 campaign selected nothing")
	}
	st, err := ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finalized || st.Done != st.Total {
		t.Fatalf("f32 campaign not complete: %d/%d done, finalized=%v", st.Done, st.Total, st.Finalized)
	}
	if st.Precision != "f32" {
		t.Fatalf("status precision = %q, want f32", st.Precision)
	}
}
