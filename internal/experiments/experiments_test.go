package experiments

import (
	"strings"
	"testing"
)

// The Smoke scale trains tiny models and screens a few dozen
// compounds; these tests validate experiment plumbing and the
// qualitative result shapes that do not need the Full budget.

func TestTable1ContainsAllModels(t *testing.T) {
	txt := Table1()
	for _, want := range []string{"3D-CNN", "SG-CNN", "Fusion", "learning_rate", "logU(1e-08, 0.001)"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, txt)
		}
	}
}

func TestTable6ShapesAndSanity(t *testing.T) {
	res := Table6(Smoke)
	if len(res.Rows) != 5 {
		t.Fatalf("Table 6 rows = %d, want 5", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.RMSE <= 0 || r.RMSE > 5 {
			t.Fatalf("%s RMSE = %v implausible", r.Model, r.RMSE)
		}
		if r.MAE > r.RMSE {
			t.Fatalf("%s MAE %v > RMSE %v", r.Model, r.MAE, r.RMSE)
		}
	}
	// Fusion variants must appear in the text output.
	for _, name := range []string{"Mid-level Fusion", "Late Fusion", "Coherent Fusion"} {
		if !strings.Contains(res.Text, name) {
			t.Fatalf("Table 6 text missing %s", name)
		}
	}
}

func TestTable7MatchesPaperAnatomy(t *testing.T) {
	res := Table7()
	if res.SingleStartupMin < 18 || res.SingleStartupMin > 22 {
		t.Fatalf("startup %v", res.SingleStartupMin)
	}
	if res.SinglePosesSec < 100 || res.SinglePosesSec > 116 {
		t.Fatalf("single-job poses/s %v, paper 108", res.SinglePosesSec)
	}
	if res.PeakPosesSec < 12800 || res.PeakPosesSec > 14400 {
		t.Fatalf("peak poses/s %v, paper 13594", res.PeakPosesSec)
	}
	if res.VinaSpeedup < 2.3 || res.VinaSpeedup > 3.1 {
		t.Fatalf("Vina speedup %v, paper 2.7", res.VinaSpeedup)
	}
	if res.GBSASpeedup < 340 || res.GBSASpeedup > 460 {
		t.Fatalf("GBSA speedup %v, paper 403", res.GBSASpeedup)
	}
}

func TestFigure4Shape(t *testing.T) {
	res := Figure4()
	if len(res.Points) != 12 {
		t.Fatalf("points = %d, want 12", len(res.Points))
	}
	// For each batch size, runtime decreases with nodes.
	byBatch := map[int][]Figure4Point{}
	for _, p := range res.Points {
		byBatch[p.Batch] = append(byBatch[p.Batch], p)
	}
	for batch, pts := range byBatch {
		for i := 1; i < len(pts); i++ {
			if pts[i].RunMinutes >= pts[i-1].RunMinutes {
				t.Fatalf("batch %d: no speedup from %d to %d nodes", batch, pts[i-1].Nodes, pts[i].Nodes)
			}
		}
	}
	// At 4 nodes, batch 56 beats batch 12 by several minutes.
	t12, t56 := 0.0, 0.0
	for _, p := range res.Points {
		if p.Nodes == 4 && p.Batch == 12 {
			t12 = p.RunMinutes
		}
		if p.Nodes == 4 && p.Batch == 56 {
			t56 = p.RunMinutes
		}
	}
	if t56 >= t12 {
		t.Fatalf("batch 56 (%v min) should beat batch 12 (%v min)", t56, t12)
	}
	// 8-node failure rate reported at 20%.
	for _, p := range res.Points {
		if p.Nodes == 8 && p.FailurePct != 20 {
			t.Fatalf("8-node failure %v%%, want 20%%", p.FailurePct)
		}
	}
}

func TestCampaignSmoke(t *testing.T) {
	c := Campaign(Smoke)
	if len(c.PerTarget) != 4 {
		t.Fatalf("targets = %d", len(c.PerTarget))
	}
	if c.NumTested == 0 {
		t.Fatal("no compounds tested")
	}
	for _, tgt := range c.PerTarget {
		if len(tgt.Tested) == 0 {
			t.Fatalf("%s: nothing tested", tgt.Target.Name)
		}
		for _, tc := range tgt.Tested {
			if tc.Inhibition < 0 || tc.Inhibition > 100 {
				t.Fatalf("inhibition %v out of range", tc.Inhibition)
			}
		}
	}
}

func TestFigure5CountsActives(t *testing.T) {
	res := Figure5(Smoke)
	if len(res.Counts) != 4 {
		t.Fatalf("counts for %d targets", len(res.Counts))
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total == 0 {
		t.Fatal("no active compounds anywhere; Figure 5 would be empty")
	}
}

func TestTable8AllCells(t *testing.T) {
	res := Table8(Smoke)
	if len(res.Rows) != 12 {
		t.Fatalf("Table 8 rows = %d, want 12 (3 methods x 4 targets)", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Pearson < -1 || r.Pearson > 1 {
			t.Fatalf("Pearson %v out of range", r.Pearson)
		}
	}
}

func TestFigure6AllCells(t *testing.T) {
	res := Figure6(Smoke)
	if len(res.Rows) != 12 {
		t.Fatalf("Figure 6 rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.F1 < 0 || r.F1 > 1 {
			t.Fatalf("F1 %v out of range", r.F1)
		}
	}
}

func TestFigure7TopCompounds(t *testing.T) {
	res := Figure7(Smoke)
	if len(res.Top) == 0 {
		t.Fatal("no top compounds")
	}
	for i := 1; i < len(res.Top); i += 2 {
		if res.Top[i].Inhibition > res.Top[i-1].Inhibition {
			t.Fatal("per-target top compounds not sorted by inhibition")
		}
	}
}

func TestHitRatePositive(t *testing.T) {
	res := HitRate(Smoke)
	if res.Tested == 0 {
		t.Fatal("nothing tested")
	}
	if res.HitRate < 0 || res.HitRate > 1 {
		t.Fatalf("hit rate %v", res.HitRate)
	}
}

func TestHPOTablesSmoke(t *testing.T) {
	if r := Table2SGCNN(Smoke); r.Text == "" || r.BestLoss <= 0 {
		t.Fatal("Table 2 empty")
	}
	if r := Table4MidFusion(Smoke); !strings.Contains(r.Text, "Mid-level") {
		t.Fatal("Table 4 empty")
	}
}

func TestEveryExperimentRenders(t *testing.T) {
	// cmd/benchreport renders every table and figure of the paper's
	// evaluation in this order; at smoke scale each must render its
	// section without panicking or printing NaN cells.
	sections := []string{
		Figure1(Smoke), Table1(), Table2SGCNN(Smoke).Text, Table3CNN3D(Smoke).Text,
		Table4MidFusion(Smoke).Text, Table5Coherent(Smoke).Text, Table6(Smoke).Text,
		Figure2(Smoke).Text, Table7().Text, Figure4().Text, Figure5(Smoke).Text,
		Table8(Smoke).Text, Figure6(Smoke).Text, Figure7(Smoke).Text, HitRate(Smoke).Text,
	}
	out := strings.Join(sections, "\n")
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
		"Table 6", "Figure 2", "Table 7", "Figure 4", "Figure 5",
		"Table 8", "Figure 6", "Figure 7", "Hit rate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("the experiments are missing the %q section", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("an experiment prints NaN cells")
	}
}

func TestCoherentModelCached(t *testing.T) {
	// Coherent() must hand back the memoized bundle: two calls at the
	// same scale return the identical trained model.
	a := Coherent(Smoke)
	b := Coherent(Smoke)
	if a != b {
		t.Fatal("Coherent(Smoke) should return the cached instance")
	}
	if a == nil {
		t.Fatal("Coherent(Smoke) returned nil")
	}
}

func TestFigure1RendersTrainedArchitecture(t *testing.T) {
	out := Figure1(Smoke)
	for _, want := range []string{
		"Figure 1", "3D-CNN head", "SG-CNN head", "Fusion block",
		"Coherent Fusion (backprop through both heads)", "total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure1 output missing %q", want)
		}
	}
}
