package fusion

import "fmt"

// Precision selects the numeric width of the pooled inference path.
// Float64 is the verified reference — what training evaluation reads
// and the goldens pin — and stays the default everywhere. Float32 is the screening fast path: half the
// memory traffic through every panel, scatter and gather kernel, with
// rank fidelity against the reference pinned by the engine-level A/B
// harness (Spearman and top-K overlap on the planted-affinity oracle)
// rather than bitwise equality.
//
// The knob rides on the inference workspace (NewWorkspaceFor), so one
// Scorer contract serves both widths: the engine builds per-rank
// workspaces at the job's precision and every ScoreInto dispatch
// follows the workspace.
type Precision string

const (
	// PrecisionF64 is the float64 reference path.
	PrecisionF64 Precision = "f64"
	// PrecisionF32 is the float32 inference fast path.
	PrecisionF32 Precision = "f32"
)

// Normalize maps the empty string — legacy configs, zero values,
// pre-PR6 campaign manifests — to the f64 reference.
func (p Precision) Normalize() Precision {
	if p == "" {
		return PrecisionF64
	}
	return p
}

// Validate rejects anything but f32, f64 and the empty string.
func (p Precision) Validate() error {
	switch p.Normalize() {
	case PrecisionF64, PrecisionF32:
		return nil
	}
	return fmt.Errorf("fusion: unknown precision %q (want f32 or f64)", string(p))
}
