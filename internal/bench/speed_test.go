package bench

import (
	"slices"
	"strings"
	"testing"
)

// TestSpeedShape checks the raw-speed table's structure at unit-test
// scale: the workloads in order, each with positive event counts,
// timings and speedup, and a positive geomean row in the artifact. The
// >= 2x geomean gate is attached only at full scale, so Check skips it
// here: at 0.1x the working sets collapse into cache and the ratio
// measures only shared dispatch overhead.
func TestSpeedShape(t *testing.T) {
	cfg := Config{Scale: 0.1, Runs: 1}
	rep, err := Speed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"same-epoch", "sweep", "read-shared", "first-touch", "mixed"}
	if len(rep.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), len(want))
	}
	for i, r := range rep.Rows {
		if r.Workload != want[i] || r.Speedup <= 0 {
			t.Errorf("row %d: %s speedup %.2f, want %s and speedup > 0", i, r.Workload, r.Speedup, want[i])
		}
	}
	a := NewArtifact(cfg)
	a.Rows = rep.ArtifactRows()
	for _, err := range a.Check("speed") {
		t.Error(err)
	}
	if !slices.ContainsFunc(a.Rows, func(r Row) bool { return r.Workload == "geomean" && r.Metric == "speedup" && r.Value > 0 }) {
		t.Error("artifact holds no positive geomean speedup row")
	}

	var tbl strings.Builder
	FprintSpeed(&tbl, rep)
	for _, w := range want {
		if !strings.Contains(tbl.String(), w) {
			t.Errorf("rendered table missing workload %q", w)
		}
	}
}
