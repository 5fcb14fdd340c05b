// Package deepfusion is a pure-Go reproduction of "High-Throughput
// Virtual Screening of Small Molecule Inhibitors for SARS-CoV-2
// Protein Targets with Deep Fusion Models" (Stevenson et al., SC 2021).
//
// It exposes the screening-facing surface of the system: the four
// SARS-CoV-2 binding sites, the four compound libraries, training of
// the 3D-CNN / SG-CNN / Fusion models on a synthetic PDBbind corpus,
// and the composable screening Pipeline over the one scoring contract
// (Scorer) shared by every model family, the physics surrogates and
// consensus — dock, score with a context-aware distributed ensemble
// job, select with the cost function, all reported in a rich Result. The internal packages hold the substrates
// (chemistry, docking, MM/GBSA, PB2 hyper-parameter optimization,
// cluster simulation); see DESIGN.md for the full inventory. The
// paper-vs-measured record of every table and figure is regenerated
// by cmd/benchreport (`make bench-report`).
package deepfusion

import (
	"fmt"

	"deepfusion/internal/chem"
	"deepfusion/internal/fusion"
	"deepfusion/internal/libgen"
	"deepfusion/internal/md"
	"deepfusion/internal/pdbbind"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// Re-exported core types. The aliases keep example and downstream
// code on one import path.
type (
	// Mol is a small molecule (parsed from SMILES or generated).
	Mol = chem.Mol
	// Pocket is a protein binding site.
	Pocket = target.Pocket
	// Library is a compound collection.
	Library = libgen.Library
	// Models bundles the trained predictors of the paper.
	Models struct {
		CNN3D    *fusion.CNN3D
		SGCNN    *fusion.SGCNN
		Late     *fusion.LateFusion
		Mid      *fusion.Fusion
		Coherent *fusion.Fusion
	}
	// CompoundScore is a per-compound screening outcome.
	CompoundScore = screen.CompoundScore
	// Precision selects the screening engine's inference arithmetic:
	// PrecisionF64 (verified reference) or PrecisionF32 (fast path).
	Precision = screen.Precision
)

// Engine precisions for Pipeline.WithPrecision and JobOptions.
const (
	PrecisionF64 = screen.PrecisionF64
	PrecisionF32 = screen.PrecisionF32
)

// Targets returns the four SARS-CoV-2 binding sites (protease1,
// protease2, spike1, spike2).
func Targets() []*Pocket { return target.All() }

// TargetByName returns a screening target by name, or nil.
func TargetByName(name string) *Pocket { return target.ByName(name) }

// Libraries returns the four compound libraries of the screen (ZINC
// world-approved, ChEMBL, eMolecules, Enamine).
func Libraries() []*Library { return libgen.All() }

// ParseSMILES parses a SMILES string into a molecule.
func ParseSMILES(s string) (*Mol, error) { return chem.ParseSMILES(s) }

// PrepareLigand runs the MOE-style preparation pipeline: desalt,
// reject metal complexes, set pH 7 protonation, embed 3D coordinates.
func PrepareLigand(m *Mol, seed int64) (*Mol, error) { return chem.Prepare(m, seed) }

// TrainOptions sizes a training run.
type TrainOptions struct {
	Dataset  pdbbind.Options
	CNN      fusion.CNN3DConfig
	SG       fusion.SGCNNConfig
	Mid      fusion.FusionConfig
	Coherent fusion.FusionConfig
	Seed     int64
}

// DefaultTrainOptions returns the repro-scale configuration (the
// converged Table 2-5 hyper-parameters, scaled).
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		Dataset:  pdbbind.DefaultOptions(),
		CNN:      fusion.DefaultCNN3DConfig(),
		SG:       fusion.DefaultSGCNNConfig(),
		Mid:      fusion.DefaultMidFusionConfig(),
		Coherent: fusion.DefaultCoherentConfig(),
		Seed:     1,
	}
}

// Train generates the synthetic PDBbind corpus and trains all five
// models following the paper's procedure: individual heads first, then
// Mid-level Fusion on frozen heads, then Coherent Fusion fine-tuning
// pre-trained heads.
func Train(o TrainOptions) (*Models, error) {
	ds := pdbbind.Generate(o.Dataset)
	train := fusion.FeaturizeDataset(ds.Train, o.CNN.Voxel, o.SG.Graph)
	val := fusion.FeaturizeDataset(ds.Val, o.CNN.Voxel, o.SG.Graph)
	if len(train) == 0 || len(val) == 0 {
		return nil, fmt.Errorf("deepfusion: empty training corpus")
	}
	m := &Models{}
	m.CNN3D, _ = fusion.TrainCNN3D(o.CNN, train, val, o.Seed)
	m.SGCNN, _ = fusion.TrainSGCNN(o.SG, train, val, o.Seed+1)
	m.Late = &fusion.LateFusion{CNN: m.CNN3D, SG: m.SGCNN}
	m.Mid = fusion.NewFusion(o.Mid, m.CNN3D.Clone(), m.SGCNN.Clone(), o.Seed+2)
	fusion.TrainFusion(m.Mid, train, val, o.Seed+3)
	m.Coherent = fusion.NewFusion(o.Coherent, m.CNN3D.Clone(), m.SGCNN.Clone(), o.Seed+4)
	fusion.TrainFusion(m.Coherent, train, val, o.Seed+5)
	return m, nil
}

// RefineOptions configures the molecular-dynamics pose refinement
// stage (minimize, Langevin anneal, quench).
type RefineOptions = md.Options

// DefaultRefineOptions returns the screening-scale MD protocol.
func DefaultRefineOptions() RefineOptions { return md.DefaultOptions() }

// RefinePose relaxes a posed ligand in the pocket with the
// molecular-dynamics funnel stage the paper cites as the step before
// candidates are finalized for experiments. It returns the refined
// geometry and its force-field energy in kcal/mol.
func RefinePose(p *Pocket, mol *Mol, o RefineOptions) (*Mol, float64) {
	return md.RefinePose(p, mol, o)
}

// CostWeights returns the default hand-tailored compound-selection
// cost function (paper Section 5).
func CostWeights() screen.CostWeights { return screen.DefaultCostWeights() }

// ScreenOptions holds the repro-scale docking and job defaults a new
// Pipeline starts from.
type ScreenOptions struct {
	MaxPoses int // docked poses kept per compound (paper: 10)
	Job      screen.JobOptions
	Seed     int64
}

// DefaultScreenOptions mirrors the production funnel at repro scale.
func DefaultScreenOptions() ScreenOptions {
	return ScreenOptions{MaxPoses: 5, Job: screen.DefaultJobOptions(), Seed: 1}
}
