package pdbbind

import (
	"math"
	"sort"
	"testing"
)

func smallOptions() Options {
	return Options{NGeneral: 80, NRefined: 40, NCore: 16, ValFraction: 0.10, NumPockets: 6, Seed: 7}
}

func TestGenerateSizes(t *testing.T) {
	o := smallOptions()
	ds := Generate(o)
	if len(ds.Core) != o.NCore {
		t.Fatalf("core = %d, want %d", len(ds.Core), o.NCore)
	}
	total := len(ds.Train) + len(ds.Val)
	if total != o.NGeneral+o.NRefined {
		t.Fatalf("train+val = %d, want %d", total, o.NGeneral+o.NRefined)
	}
	// Validation should be ~10%.
	frac := float64(len(ds.Val)) / float64(total)
	if frac < 0.07 || frac > 0.14 {
		t.Fatalf("val fraction = %v, want ~0.10", frac)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallOptions())
	b := Generate(smallOptions())
	if len(a.Train) != len(b.Train) {
		t.Fatal("train size differs across runs")
	}
	for i := range a.Train {
		if a.Train[i].ID != b.Train[i].ID || a.Train[i].Label != b.Train[i].Label {
			t.Fatal("dataset not deterministic")
		}
	}
}

func TestLabelsInRange(t *testing.T) {
	ds := Generate(smallOptions())
	for _, set := range [][]*Complex{ds.Train, ds.Val, ds.Core} {
		for _, c := range set {
			if c.Label < 2 || c.Label > 12 {
				t.Fatalf("%s label %v outside [2,12]", c.ID, c.Label)
			}
		}
	}
}

func TestLabelsCorrelateWithOracle(t *testing.T) {
	// Labels are oracle + noise; they must track the oracle strongly.
	ds := Generate(smallOptions())
	var num, da, db float64
	var ma, mb float64
	oracle := make([]float64, len(ds.Train))
	labels := make([]float64, len(ds.Train))
	for i, c := range ds.Train {
		oracle[i] = c.Pocket.TrueAffinity(c.Mol)
		labels[i] = c.Label
		ma += oracle[i]
		mb += labels[i]
	}
	n := float64(len(oracle))
	ma /= n
	mb /= n
	for i := range oracle {
		num += (oracle[i] - ma) * (labels[i] - mb)
		da += (oracle[i] - ma) * (oracle[i] - ma)
		db += (labels[i] - mb) * (labels[i] - mb)
	}
	r := num / math.Sqrt(da*db)
	if r < 0.8 {
		t.Fatalf("label/oracle correlation = %v, want > 0.8", r)
	}
}

func TestRefinedFilters(t *testing.T) {
	ds := Generate(smallOptions())
	for _, c := range append(append([]*Complex{}, ds.Core...), refinedOf(ds)...) {
		if c.Measure == MeasureIC50 {
			t.Fatalf("%s: IC50 entry in refined/core", c.ID)
		}
		if c.Resolution >= 2.5 {
			t.Fatalf("%s: resolution %v in refined/core", c.ID, c.Resolution)
		}
		if c.Mol.Weight() > 1000 {
			t.Fatalf("%s: MW %v in refined/core", c.ID, c.Mol.Weight())
		}
	}
}

func refinedOf(ds *Dataset) []*Complex {
	var out []*Complex
	for _, c := range append(append([]*Complex{}, ds.Train...), ds.Val...) {
		if c.Set == "refined" {
			out = append(out, c)
		}
	}
	return out
}

func TestGeneralSetMayContainIC50(t *testing.T) {
	ds := Generate(Options{NGeneral: 150, NRefined: 10, NCore: 5, ValFraction: 0.1, NumPockets: 5, Seed: 11})
	found := false
	for _, c := range append(append([]*Complex{}, ds.Train...), ds.Val...) {
		if c.Set == "general" && c.Measure == MeasureIC50 {
			found = true
		}
	}
	if !found {
		t.Fatal("general set should retain IC50 entries (they are equivalent labels)")
	}
}

func TestCoreDisjointFromTrain(t *testing.T) {
	ds := Generate(smallOptions())
	ids := map[string]bool{}
	for _, c := range ds.Core {
		ids[c.ID] = true
	}
	for _, c := range append(append([]*Complex{}, ds.Train...), ds.Val...) {
		if ids[c.ID] {
			t.Fatalf("core complex %s leaked into train/val", c.ID)
		}
	}
}

func TestQuintileSplitCoversRange(t *testing.T) {
	ds := Generate(Options{NGeneral: 300, NRefined: 0, NCore: 1, ValFraction: 0.1, NumPockets: 5, Seed: 3})
	// Validation must include at least one sample from the lowest and
	// highest label quintiles of the combined data.
	all := append(append([]*Complex{}, ds.Train...), ds.Val...)
	labels := make([]float64, len(all))
	for i, c := range all {
		labels[i] = c.Label
	}
	sort.Float64s(labels)
	loCut := labels[len(labels)/5]   // top of bottom count-quintile
	hiCut := labels[len(labels)*4/5] // bottom of top count-quintile
	hasLow, hasHigh := false, false
	for _, c := range ds.Val {
		if c.Label <= loCut {
			hasLow = true
		}
		if c.Label >= hiCut {
			hasHigh = true
		}
	}
	if !hasLow || !hasHigh {
		t.Fatalf("validation set missing label extremes (low=%v high=%v)", hasLow, hasHigh)
	}
}

func TestQuintileSplitPartition(t *testing.T) {
	ds := Generate(smallOptions())
	train, val := QuintileSplit(ds.Train, 0.2, 5)
	if len(train)+len(val) != len(ds.Train) {
		t.Fatal("split lost complexes")
	}
	seen := map[string]int{}
	for _, c := range train {
		seen[c.ID]++
	}
	for _, c := range val {
		seen[c.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("complex %s appears %d times after split", id, n)
		}
	}
}

func TestQuintileSplitEmpty(t *testing.T) {
	train, val := QuintileSplit(nil, 0.1, 1)
	if train != nil || val != nil {
		t.Fatal("empty split should return nils")
	}
}

func TestBadValFractionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(Options{NGeneral: 1, NRefined: 1, NCore: 1, ValFraction: 0, NumPockets: 4, Seed: 1})
}

func TestMeasureString(t *testing.T) {
	if MeasureKi.String() != "Ki" || MeasureKd.String() != "Kd" || MeasureIC50.String() != "IC50" {
		t.Fatal("measurement names")
	}
}

func TestLigandPosedInPocket(t *testing.T) {
	ds := Generate(smallOptions())
	for _, c := range ds.Core {
		d := c.Mol.Centroid().Norm()
		if d > 5 {
			t.Fatalf("%s ligand centroid %v A from pocket center", c.ID, d)
		}
	}
}

func TestLabelDiversity(t *testing.T) {
	ds := Generate(smallOptions())
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range ds.Train {
		if c.Label < lo {
			lo = c.Label
		}
		if c.Label > hi {
			hi = c.Label
		}
	}
	if hi-lo < 2.5 {
		t.Fatalf("label range only %v pK units; oracle too flat for training", hi-lo)
	}
}

func TestPocketPoolContainsScreeningTargets(t *testing.T) {
	ds := Generate(smallOptions())
	names := map[string]bool{}
	for _, c := range append(append([]*Complex{}, ds.Train...), ds.Core...) {
		names[c.Pocket.Name] = true
	}
	// The four screening targets participate in the corpus (so models
	// see them during training, as PDBbind contains SARS-CoV proteases).
	found := 0
	for _, n := range []string{"protease1", "protease2", "spike1", "spike2"} {
		if names[n] {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no screening target present in the corpus pocket pool")
	}
}

func TestComplexIDsUnique(t *testing.T) {
	ds := Generate(smallOptions())
	seen := map[string]bool{}
	for _, c := range append(append(append([]*Complex{}, ds.Train...), ds.Val...), ds.Core...) {
		if seen[c.ID] {
			t.Fatalf("duplicate complex ID %s", c.ID)
		}
		seen[c.ID] = true
	}
}
