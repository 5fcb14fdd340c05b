package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"deepfusion/internal/chem"
	"deepfusion/internal/libgen"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// SubmitRequest is the POST /v1/submit body. Clients name compounds
// by library-qualified ID ("zinc-world-approved:17") or inline SMILES
// strings; the service prepares and docks them server-side, then
// feeds the poses through the cross-request batcher.
type SubmitRequest struct {
	Target string `json:"target"`
	// Compounds are library-qualified IDs resolved through the
	// deterministic compound libraries.
	Compounds []string `json:"compounds,omitempty"`
	// SMILES are ad-hoc structures, prepared exactly like library
	// downloads (desalt, protonate, embed).
	SMILES []string `json:"smiles,omitempty"`
	// MaxPoses caps docked poses per compound (default 3).
	MaxPoses int `json:"max_poses,omitempty"`
}

// SubmitResponse acknowledges an admitted submission.
type SubmitResponse struct {
	ID    string `json:"id"`
	Poses int    `json:"poses"`
	// DockProblems lists compounds that failed preparation or docking
	// and were skipped (the funnel's tolerance of bad inputs).
	DockProblems []string `json:"dock_problems,omitempty"`
}

// ResultsResponse is the completed request's score table.
type ResultsResponse struct {
	ID          string             `json:"id"`
	Target      string             `json:"target"`
	Predictions []PredictionRecord `json:"predictions"`
}

// PredictionRecord is one scored pose in wire form.
type PredictionRecord struct {
	CompoundID string             `json:"compound_id"`
	PoseRank   int                `json:"pose_rank"`
	Fusion     float64            `json:"fusion_pk"`
	Vina       float64            `json:"vina_kcal"`
	MMGBSA     float64            `json:"mmgbsa_kcal"`
	Scores     map[string]float64 `json:"scores,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// NewHandler wires the service's HTTP surface onto the engine:
//
//	POST /v1/submit               dock + admit a compound set
//	GET  /v1/requests/{id}         request status
//	GET  /v1/requests/{id}/results scores (?wait=1 long-polls)
//	GET  /v1/status               engine + batcher statistics
//	GET  /healthz                 liveness (503 while draining)
//
// Overload maps to 429 with a Retry-After header; submissions during
// drain map to 503. A handler that panics — decoding, parsing or
// preparing a submission — answers 500 and is counted in the status
// page's panics, instead of dropping the connection.
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(e, w, r)
	})
	mux.HandleFunc("GET /v1/requests/{id}", func(w http.ResponseWriter, r *http.Request) {
		req, ok := e.Request(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown request %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, e.Snapshot(req))
	})
	mux.HandleFunc("GET /v1/requests/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		handleResults(e, w, r)
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Status())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if e.Draining() {
			writeError(w, http.StatusServiceUnavailable, ErrDraining)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				e.stats.panicked()
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", v))
			}
		}()
		mux.ServeHTTP(w, r)
	})
}

// maxSubmitBody caps one POST /v1/submit body. A submission names
// compounds by ID or SMILES, a few dozen bytes each, so 1 MiB is tens of
// thousands of compounds — far beyond any batch the engine forms. A
// body that runs past it is refused with 413, having buffered at most
// the cap.
const maxSubmitBody = 1 << 20

func handleSubmit(e *Engine, w http.ResponseWriter, r *http.Request) {
	var sub SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&sub); err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("bad submit body: %w", err))
		return
	}
	if sub.Target == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("submit names no target"))
		return
	}
	if len(sub.Compounds)+len(sub.SMILES) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("submit names no compounds"))
		return
	}
	poses, problems, err := e.dockSubmission(r.Context(), &sub)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errSubmissionTooLarge) {
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, err)
		return
	}
	if len(poses) == 0 {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("no compound survived docking: %s", strings.Join(problems, "; ")))
		return
	}
	req, err := e.SubmitPoses(sub.Target, poses)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: req.ID, Poses: len(poses), DockProblems: problems})
}

// Bounds on one submission, checked before any compound is resolved,
// prepared or docked: preparation and docking cost milliseconds a
// compound and run before admission, so a request over any bound is
// answered 422 without any of that work. Each sits far above what a
// client batching for this engine sends (a few compounds of at most
// a few dozen atoms at the default 3 poses).
//
// Preparation (chem.Embed3D) is quadratic in the atom count, so the
// atom bound is what keeps one inline SMILES cheap: a 1000-atom chain
// took 0.88 s to prepare. Parsing is linear but allocates about half a
// kilobyte an atom, so a SMILES longer than 16 bytes an atom of the
// bound is refused before it is parsed.
const (
	maxSubmitCompounds   = 1024 // compound IDs plus inline SMILES
	maxSubmitPoses       = 64   // max_poses, docked poses per compound
	maxSubmitAtoms       = 128  // atoms of one parsed inline SMILES
	maxSubmitSMILESBytes = 16 * maxSubmitAtoms
)

// errSubmissionTooLarge marks a submission over one of the bounds.
var errSubmissionTooLarge = errors.New("submission too large")

// dockSubmission resolves and docks the submission's compounds — the
// ingest half of the funnel, run in the handler so the batcher only
// ever sees ready-to-score poses.
func (e *Engine) dockSubmission(ctx context.Context, sub *SubmitRequest) ([]screen.Pose, []string, error) {
	if n := len(sub.Compounds) + len(sub.SMILES); n > maxSubmitCompounds {
		return nil, nil, fmt.Errorf("%w: %d compounds, at most %d a request", errSubmissionTooLarge, n, maxSubmitCompounds)
	}
	if sub.MaxPoses > maxSubmitPoses {
		return nil, nil, fmt.Errorf("%w: max_poses %d, at most %d", errSubmissionTooLarge, sub.MaxPoses, maxSubmitPoses)
	}
	pocket := target.ByName(sub.Target)
	if pocket == nil {
		return nil, nil, fmt.Errorf("unknown target %q", sub.Target)
	}
	maxPoses := sub.MaxPoses
	if maxPoses <= 0 {
		maxPoses = 3
	}
	// Parse every inline SMILES first, so an oversized one is refused
	// before any compound is resolved or prepared.
	parsed := make([]*chem.Mol, len(sub.SMILES))
	parseErrs := make([]error, len(sub.SMILES))
	for i, s := range sub.SMILES {
		if len(s) > maxSubmitSMILESBytes {
			return nil, nil, fmt.Errorf("%w: smiles[%d] is %d bytes, at most %d", errSubmissionTooLarge, i, len(s), maxSubmitSMILESBytes)
		}
		m, err := chem.ParseSMILES(s)
		if err != nil {
			parseErrs[i] = err
			continue
		}
		if len(m.Atoms) > maxSubmitAtoms {
			return nil, nil, fmt.Errorf("%w: smiles[%d] has %d atoms, at most %d a compound", errSubmissionTooLarge, i, len(m.Atoms), maxSubmitAtoms)
		}
		parsed[i] = m
	}
	var mols []*chem.Mol
	var problems []string
	for _, id := range sub.Compounds {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		m, err := libgen.MolByID(id)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		mols = append(mols, m)
	}
	for i, m := range parsed {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if parseErrs[i] != nil {
			problems = append(problems, fmt.Sprintf("smiles[%d]: %v", i, parseErrs[i]))
			continue
		}
		if m.Name == "" {
			m.Name = fmt.Sprintf("smiles:%d", i)
		}
		prepared, err := chem.Prepare(m, e.cfg.Job.Seed)
		if err != nil {
			problems = append(problems, fmt.Sprintf("smiles[%d]: %v", i, err))
			continue
		}
		prepared.Name = m.Name
		mols = append(mols, prepared)
	}
	if len(mols) == 0 {
		return nil, problems, nil
	}
	poses, dockProblems, err := e.dock(ctx, pocket, mols, maxPoses, e.cfg.Job.Seed)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range dockProblems {
		problems = append(problems, p.String())
	}
	return poses, problems, nil
}

func handleResults(e *Engine, w http.ResponseWriter, r *http.Request) {
	req, ok := e.Request(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown request %q", r.PathValue("id")))
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-req.Done():
		case <-r.Context().Done():
			return
		}
	}
	preds, err := e.Results(req)
	if err != nil {
		st := e.Snapshot(req)
		switch st.State {
		case StateQueued:
			writeError(w, http.StatusConflict, err)
		default:
			writeError(w, http.StatusGone, err)
		}
		return
	}
	resp := ResultsResponse{ID: req.ID, Target: req.Target, Predictions: make([]PredictionRecord, len(preds))}
	for i, p := range preds {
		resp.Predictions[i] = PredictionRecord{
			CompoundID: p.CompoundID,
			PoseRank:   p.PoseRank,
			Fusion:     p.Fusion,
			Vina:       p.Vina,
			MMGBSA:     p.MMGBSA,
			Scores:     p.Scores,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeSubmitError maps engine admission errors onto HTTP semantics:
// overload → 429 + Retry-After (integer seconds, rounded up), drain →
// 503, anything else → 400.
func writeSubmitError(w http.ResponseWriter, err error) {
	var over *OverloadError
	switch {
	case errors.As(err, &over):
		secs := int(math.Ceil(over.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err)
	case err == ErrDraining:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// Server couples the HTTP listener with the engine's drain sequence:
// Shutdown stops admission first (so load balancers fail over), then
// drains the engine (in-flight work finishes and persists), then
// closes the listener.
type Server struct {
	Engine *Engine
	HTTP   *http.Server
}

// NewServer builds an http.Server on addr serving the engine.
func NewServer(e *Engine, addr string) *Server {
	return &Server{
		Engine: e,
		HTTP:   &http.Server{Addr: addr, Handler: NewHandler(e)},
	}
}

// Shutdown is the SIGTERM path: drain the engine (refusing new
// submissions, flushing partial batches, persisting every in-flight
// request), then stop the HTTP listener so late long-pollers get
// their responses before the socket closes.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Engine.Drain()
	shutdownCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	return s.HTTP.Shutdown(shutdownCtx)
}
