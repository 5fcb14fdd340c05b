package screen

import (
	"fmt"

	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/mmgbsa"
	"deepfusion/internal/target"
)

// batchEmitter is the per-batch scoring core shared by runRanks' rank
// loop and the Session seam: the job's scorers (shared instances — the
// Scorer contract makes ScoreInto safe on one instance from every
// rank), one fusion workspace, and the prediction-assembly logic that
// turns raw scorer outputs into Prediction values (pK orientation of
// the primary column, MM/GBSA reuse-or-rescore, per-scorer ensemble
// columns). Both entry points run literally this code over identically
// featurized samples, which is what makes a Session's scores
// byte-identical to a RunJob over the same poses.
type batchEmitter struct {
	scorers   []Scorer
	ws        *fusion.Workspace
	scoreBuf  []float64
	extraBufs [][]float64
	bs        int
	ensemble  bool
	mmgbsaIdx int
	pocket    *target.Pocket
	rank      int
}

// newBatchEmitter builds the scoring core for one rank (or one
// session): one workspace at the job's precision, shared by every
// scorer in the set, and pre-sized score buffers — so the scoring loop
// is allocation-free once warm.
func newBatchEmitter(scorers []Scorer, p *target.Pocket, bs int, prec Precision, rank int) *batchEmitter {
	// When the MM/GBSA surrogate is in the scorer set, its ScoreInto
	// already computes the rescore carried in the legacy MMGBSA column
	// (ScoreInto is contractually deterministic) — reuse it instead of
	// paying the physics rescore twice per pose. It is found by type:
	// any other scorer may call itself "mmgbsa".
	mmgbsaIdx := -1
find:
	for i, s := range scorers {
		switch s.(type) {
		case mmgbsa.Scorer, *mmgbsa.Scorer:
			mmgbsaIdx = i
			break find
		}
	}
	e := &batchEmitter{
		scorers:   scorers,
		ws:        fusion.NewWorkspaceFor(prec),
		scoreBuf:  make([]float64, len(scorers)*bs),
		bs:        bs,
		ensemble:  len(scorers) > 1,
		mmgbsaIdx: mmgbsaIdx,
		pocket:    p,
		rank:      rank,
	}
	if e.ensemble {
		e.extraBufs = make([][]float64, len(scorers))
	}
	return e
}

// score runs one scorer over the batch through the emitter's
// workspace, into the scorer's own slice of the score buffer.
func (e *batchEmitter) score(si int, batch []*fusion.Sample) []float64 {
	out := e.scoreBuf[si*e.bs : si*e.bs+len(batch)]
	e.scorers[si].ScoreInto(batch, e.ws, out)
	return out
}

// scoreBatch scores one assembled batch with every scorer — one
// forward pass per scorer over the shared samples — and calls emit
// once per sample with the finished Prediction. batchPoses[j] is the
// pose that batch[j] was featurized from. The steady state allocates
// nothing beyond the per-pose Scores map of ensemble jobs.
func (e *batchEmitter) scoreBatch(batch []*fusion.Sample, batchPoses []Pose, emit func(j int, pr Prediction)) {
	primary := e.score(0, batch)
	var extra [][]float64
	if e.ensemble {
		extra = e.extraBufs
		extra[0] = primary
		for si := 1; si < len(e.scorers); si++ {
			extra[si] = e.score(si, batch)
		}
	}
	for j := range batch {
		ps := batchPoses[j]
		var gbsa float64
		switch {
		case e.mmgbsaIdx == 0:
			gbsa = primary[j]
		case e.mmgbsaIdx > 0:
			gbsa = extra[e.mmgbsaIdx][j]
		default:
			gbsa = mmgbsa.Rescore(e.pocket, ps.Mol)
		}
		pr := Prediction{
			CompoundID: ps.CompoundID,
			Target:     e.pocket.Name,
			PoseRank:   ps.PoseRank,
			Fusion:     orientToPK(e.scorers[0], primary[j]),
			Vina:       ps.VinaScore,
			MMGBSA:     gbsa,
			Rank:       e.rank,
		}
		if e.ensemble {
			pr.Scores = make(map[string]float64, len(e.scorers))
			for si, s := range e.scorers {
				pr.Scores[s.Name()] = extra[si][j]
			}
		}
		emit(j, pr)
	}
}

// Session is the batch-submission seam on the rank engine: a
// long-lived, warm scoring context for one (scorer set, target, job
// options) triple. Where RunJob owns a fixed pose set and drives its
// own rank fan-out, a Session scores caller-assembled pose batches on
// demand — the screening service's cross-request batcher feeds it
// batches coalesced from many client submissions. It owns one fusion
// workspace, recycled featurization slots and the job's shared pocket
// prefeature, so after warm-up a single-scorer ScoreBatch performs
// zero heap allocations (pinned by TestWarmSessionZeroAlloc).
//
// Scores are byte-identical to a solo RunJob over the same poses: a
// Session featurizes with the same FeaturizeComplexWithPrefeature
// calls the engine's loaders make and scores through the same
// batchEmitter the rank loop flushes through, and the Scorer contract
// guarantees batch-composition independence — so how poses are grouped
// into batches (one client's request, or a coalesced cross-request
// batch) cannot change any pose's score. Pinned by
// TestSessionMatchesRunJob.
//
// A Session is NOT safe for concurrent use: it owns mutable scoring
// state (workspace, slots). Callers that score in parallel hold one
// Session per worker, exactly as runRanks holds one emitter per rank.
type Session struct {
	be       *batchEmitter
	pre      *featurize.PocketPrefeature // nil: no scorer reads a representation
	pocket   *target.Pocket
	slots    []*fusion.Sample
	batchBuf []*fusion.Sample
	bs       int

	// emit plumbing: one closure built at construction writes into
	// (emitDst, emitOff), so the warm ScoreBatch path never allocates a
	// fresh closure per call.
	emitDst []Prediction
	emitOff int
	emitFn  func(j int, pr Prediction)
}

// NewSession validates the scorer set and options exactly like a job
// submission and builds the warm scoring context. rank tags the
// predictions' Rank column (the service's worker index); jobs and
// sessions agree on every other field. The target-invariant prefeature
// is taken from o.Prefeature when injected (validated to match), or
// built/reused via the engine's cache.
func NewSession(scorers []Scorer, p *target.Pocket, o JobOptions, rank int) (*Session, error) {
	if err := ValidateScorerSet(scorers); err != nil {
		return nil, err
	}
	if err := o.Precision.Validate(); err != nil {
		return nil, err
	}
	pre, err := jobPrefeature(scorers, p, o)
	if err != nil {
		return nil, err
	}
	bs := o.BatchSize
	if bs < 1 {
		bs = 1
	}
	s := &Session{
		be:       newBatchEmitter(scorers, p, bs, o.Precision, rank),
		pre:      pre,
		pocket:   p,
		slots:    make([]*fusion.Sample, bs),
		batchBuf: make([]*fusion.Sample, 0, bs),
		bs:       bs,
	}
	for i := range s.slots {
		s.slots[i] = &fusion.Sample{}
	}
	s.emitFn = func(j int, pr Prediction) { s.emitDst[s.emitOff+j] = pr }
	return s, nil
}

// BatchSize returns the batch size the session scores at — the flush
// threshold a cross-request batcher coalesces toward.
func (s *Session) BatchSize() int { return s.bs }

// Pocket returns the target the session scores against.
func (s *Session) Pocket() *target.Pocket { return s.pocket }

// ScoreBatch featurizes and scores poses, writing one Prediction per
// pose into out (len(out) must equal len(poses)). Pose sets larger
// than the batch size are scored in batch-size chunks, exactly as the
// rank loop would; callers batching for latency should submit at most
// BatchSize poses per call.
func (s *Session) ScoreBatch(poses []Pose, out []Prediction) error {
	if len(out) != len(poses) {
		return fmt.Errorf("screen: session output slice holds %d predictions for %d poses", len(out), len(poses))
	}
	for lo := 0; lo < len(poses); lo += s.bs {
		hi := lo + s.bs
		if hi > len(poses) {
			hi = len(poses)
		}
		chunk := poses[lo:hi]
		batch := s.batchBuf[:0]
		for j, ps := range chunk {
			// The featurization the engine's loaders run.
			featurizePose(s.slots[j], s.pre, s.pocket, ps)
			batch = append(batch, s.slots[j])
		}
		s.emitDst, s.emitOff = out, lo
		s.be.scoreBatch(batch, chunk, s.emitFn)
	}
	s.emitDst = nil
	return nil
}
