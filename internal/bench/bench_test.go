package bench

import (
	"strings"
	"testing"
)

// smoke runs an experiment at a small scale and sanity-checks the report.
func smoke(t *testing.T, id string, scale float64, wantRows int) *Report {
	t.Helper()
	rep, err := Run(id, Options{Scale: scale, Seed: 7})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id {
		t.Errorf("report id %q", rep.ID)
	}
	if len(rep.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d\n%s", id, len(rep.Rows), wantRows, rep)
	}
	for _, row := range rep.Rows {
		if len(row) != len(rep.Header) {
			t.Fatalf("%s: ragged row %v", id, row)
		}
		for _, cell := range row {
			if cell == "" {
				t.Fatalf("%s: empty cell in %v", id, row)
			}
		}
	}
	out := rep.String()
	if !strings.Contains(out, id) || !strings.Contains(out, rep.Header[0]) {
		t.Errorf("%s: rendering missing parts:\n%s", id, out)
	}
	t.Logf("\n%s", rep)
	return rep
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestIDsComplete(t *testing.T) {
	want := []string{
		"ablation-bloom", "ablation-lada", "ablation-sidestore", "ablation-template",
		"batchsweep",
		"ext-secondary",
		"fig10", "fig11a", "fig11b", "fig12a", "fig12b", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig7a", "fig7b", "fig8", "fig9",
		"handoff",
		"table1",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestBatchSweepSmoke(t *testing.T) { smoke(t, "batchsweep", 0.02, 5) }

func TestFig7aSmoke(t *testing.T)  { smoke(t, "fig7a", 0.05, 4) }
func TestFig7bSmoke(t *testing.T)  { smoke(t, "fig7b", 0.05, 3) }
func TestFig8Smoke(t *testing.T)   { smoke(t, "fig8", 0.03, 6) }
func TestFig9Smoke(t *testing.T)   { smoke(t, "fig9", 0.03, 4) }
func TestFig10Smoke(t *testing.T)  { smoke(t, "fig10", 0.03, 5) }
func TestFig12aSmoke(t *testing.T) { smoke(t, "fig12a", 0.03, 4) }
func TestFig12bSmoke(t *testing.T) { smoke(t, "fig12b", 0.03, 4) }
func TestFig15Smoke(t *testing.T)  { smoke(t, "fig15", 0.02, 2) }
func TestFig17Smoke(t *testing.T)  { smoke(t, "fig17", 0.02, 4) }
func TestTable1Smoke(t *testing.T) { smoke(t, "table1", 0.03, 3) }

func TestAblationTemplateSmoke(t *testing.T) { smoke(t, "ablation-template", 0.03, 2) }

// The I/O-simulating experiments sleep for real; keep them in -short-skip
// territory but still covered.
func TestFig11aSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	smoke(t, "fig11a", 0.02, 6)
}

func TestFig11bSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	smoke(t, "fig11b", 0.1, 6)
}

func TestFig13Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	smoke(t, "fig13", 0.02, 2)
}

func TestFig14Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	smoke(t, "fig14", 0.02, 12)
}

func TestFig16Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	smoke(t, "fig16", 0.02, 12)
}

func TestAblationBloomSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	smoke(t, "ablation-bloom", 0.02, 4)
}

func TestAblationLADASmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	smoke(t, "ablation-lada", 0.02, 3)
}

func TestAblationSideStoreSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	smoke(t, "ablation-sidestore", 0.02, 2)
}

func TestHandoffSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster with handoff waits")
	}
	// The experiment itself fails when an acked tuple is missing.
	smoke(t, "handoff", 0.05, 1)
}

func TestExtSecondarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	rep := smoke(t, "ext-secondary", 0.02, 4)
	_ = rep
}
