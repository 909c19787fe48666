package bench

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGatedTablesCoverTheirGates runs every gated table at minimal size
// and requires a row for each of its gates. The bounds themselves are
// not asserted: at this size the timing ratios measure noise.
// TestSpeedShape covers speed.
func TestGatedTablesCoverTheirGates(t *testing.T) {
	cfg := Config{Scale: 0.05, Runs: 1}
	for _, tc := range []struct {
		table string
		rows  func() []Row
	}{
		{"ops", func() []Row { return Ops(cfg, nil, nil).ArtifactRows() }},
		{"shards", func() []Row { return ShardScaling(cfg, nil, nil, 0).ArtifactRows() }},
		{"batch", func() []Row { return Batch(cfg, nil, 0, 0).ArtifactRows() }},
		{"fidelity", func() []Row { return Fidelity(cfg, nil, 0, 0).ArtifactRows() }},
		{"provenance", func() []Row { return Provenance(cfg, 0).ArtifactRows() }},
		{"chan", func() []Row { return Chan(cfg, 0).ArtifactRows() }},
	} {
		t.Run(tc.table, func(t *testing.T) {
			a := NewArtifact(cfg)
			a.Rows = tc.rows()
			for _, err := range a.Check(tc.table) {
				if errors.Is(err, errNoRow) {
					t.Error(err)
				}
			}
		})
	}
}

// inside and outside pick a value that b admits and one it rejects.
func inside(b bound) float64 {
	if math.IsInf(b.Hi, 1) {
		return b.Lo + 1
	}
	return (b.Lo + b.Hi) / 2
}

func outside(b bound) float64 { return b.Lo - 1 }

// passingArtifact holds one in-bound row per gate, under an envelope on
// which every conditional gate is attached.
func passingArtifact() *Artifact {
	a := &Artifact{Schema: Schema, CPUs: 4, Scale: 1, Runs: 1}
	for _, g := range gates {
		a.Rows = append(a.Rows, Row{Table: g.Table, Workload: g.Workload, Metric: g.Metric, Value: inside(g.Bound)})
	}
	return a
}

var allTables = []string{"ops", "shards", "batch", "fidelity", "provenance", "speed", "chan"}

// TestCheckFailsExactlyTheViolatedGate violates each gate in turn, alone
// among otherwise passing rows, and then deletes its row: Check must
// fail that gate and no other.
func TestCheckFailsExactlyTheViolatedGate(t *testing.T) {
	if errs := passingArtifact().Check(allTables...); len(errs) != 0 {
		t.Fatalf("passing fixture fails: %v", errs)
	}
	for i, g := range gates {
		a := passingArtifact()
		a.Rows[i].Value = outside(g.Bound)
		errs := a.Check(allTables...)
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), g.String()) || errors.Is(errs[0], errNoRow) {
			t.Errorf("violating %v: got %v", g, errs)
		}
		if a.Rows[i].Bound != g.Bound.String() {
			t.Errorf("violating %v: row stamped %q", g, a.Rows[i].Bound)
		}

		a = passingArtifact()
		a.Rows = append(a.Rows[:i], a.Rows[i+1:]...)
		errs = a.Check(allTables...)
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), g.String()) || !errors.Is(errs[0], errNoRow) {
			t.Errorf("dropping %v: got %v", g, errs)
		}
	}
}

// TestGateBounds pins each bound at its edge: the first value passes,
// the second fails.
func TestGateBounds(t *testing.T) {
	for _, tc := range []struct {
		table, workload, metric string
		pass, fail              float64
	}{
		{"ops", "crypt", "events", 1, 0},
		{"ops", "tsp/FastTrack", "fastPathPct", 100, 50},
		{"ops", "tsp/FastTrack", "fastPathPct", 50.1, 100.1},
		{"shards", "8x8", "speedup", 3.0, 2.99},
		{"batch", "serial/64", "speedup", 1.0, 0.99},
		{"batch", "sharded/64", "speedup", 1.0, 0.99},
		{"fidelity", "0.1", "speedup", 5.0, 4.99},
		{"fidelity", "0.5", "detectionProbability", 0.549, 0.55},
		{"fidelity", "0.5", "detectionProbability", 0.451, 0.45},
		{"fidelity", "0", "detectionProbability", 0, 0.05},
		{"provenance", "sync-heavy", "overhead", 2.0, 2.01},
		{"provenance", "sync-heavy", "overhead", 0.5, 0},
		{"speed", "geomean", "speedup", 2.0, 1.99},
		{"chan", "mix", "nativeRaceError", 0, 1},
		{"chan", "slack", "nativeRaceError", 0, -1},
		{"chan", "ring", "volatileRaces", 0, 1},
		{"chan", "slack", "seededRaces", 1, 0},
	} {
		for _, v := range []float64{tc.pass, tc.fail, math.NaN()} {
			a := passingArtifact()
			for i := range a.Rows {
				if r := &a.Rows[i]; r.Table == tc.table && r.Workload == tc.workload && r.Metric == tc.metric {
					r.Value = v
				}
			}
			want := 1
			if v == tc.pass {
				want = 0
			}
			if got := len(a.Check(tc.table)); got != want {
				t.Errorf("%s %s %s = %g: %d violations, want %d", tc.table, tc.workload, tc.metric, v, got, want)
			}
		}
	}
}

// TestConditionalGates: a bound that needs 4 CPUs or full scale is not
// attached, and its row not stamped, when the artifact lacks them.
func TestConditionalGates(t *testing.T) {
	a := passingArtifact()
	a.CPUs, a.Scale = 2, 0.1
	for i, r := range a.Rows {
		if r.Workload == "8x8" && r.Metric == "speedup" || r.Workload == "geomean" {
			a.Rows[i].Value = 0.5
		}
	}
	if errs := a.Check(allTables...); len(errs) != 0 {
		t.Fatalf("conditional gates attached: %v", errs)
	}
	for _, r := range a.Rows {
		if (r.Workload == "8x8" && r.Metric == "speedup" || r.Workload == "geomean") && r.Bound != "" {
			t.Errorf("%s %s stamped %q", r.Workload, r.Metric, r.Bound)
		}
	}
	a.Schema = "fasttrack/bench-speed/v1"
	if errs := a.Check(); len(errs) != 1 {
		t.Errorf("foreign schema: %v", errs)
	}
}

// TestCommittedArtifacts loads each committed BENCH_<table>.json and
// requires it to pass its table's gates.
func TestCommittedArtifacts(t *testing.T) {
	for _, table := range []string{"batch", "chan", "fidelity", "provenance", "speed"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+table+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var a Artifact
		if err := json.Unmarshal(data, &a); err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		for _, err := range a.Check(table) {
			t.Errorf("BENCH_%s.json: %v", table, err)
		}
		for _, r := range a.Rows {
			if r.Table != table {
				t.Errorf("BENCH_%s.json holds a %q row", table, r.Table)
			}
		}
	}
}
