package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// heldOutSeed was never used while the benchmark was tuned.
const heldOutSeed = 9001

// benchmarkFile is the part of ../BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type resultLineJSON struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// buildBinaries builds racedetect and racedetectd from the checkout.
func buildBinaries(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for _, cmd := range []string{"racedetect", "racedetectd"} {
		c := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd)
		c.Dir = ".."
		if out, err := c.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	return bin
}

func tinyConfig(t *testing.T, bin, workload string, traced bool) config {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return config{workload: workload, seed: heldOutSeed, seconds: 1, traced: traced, scale: 0.02, root: root, bin: bin}
}

func runTiny(t *testing.T, cfg config) (resultLineJSON, string) {
	t.Helper()
	var out strings.Builder
	line, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s (trace %v): %v\n%s", cfg.workload, cfg.traced, err, out.String())
	}
	var r resultLineJSON
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	return r, out.String()
}

// TestSmoke runs every workload at a tiny size, untraced and traced, on
// the held-out seed, and checks that the result line carries every
// metric BENCHMARK.json names, with its unit, and that every check
// passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the pipeline")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	bin := buildBinaries(t)
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			r, out := runTiny(t, tinyConfig(t, bin, w.Name, traced))
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d\n%s", w.Name, traced, r.Correct, r.Attempted, r.Failed, out)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json names %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): no metric %s", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): %s has unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptReference checks that a reference race set with a variable
// no report contains makes every checked operation a failure.
func TestCorruptReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the pipeline")
	}
	bin := buildBinaries(t)
	for _, w := range []string{"replay-paper", "stream-daemon"} {
		cfg := tinyConfig(t, bin, w, false)
		cfg.corruptRef = true
		r, out := runTiny(t, cfg)
		if r.Correct || r.Failed == 0 || r.Failed != r.Attempted {
			t.Errorf("%s with a corrupted reference: correct=%v attempted=%d failed=%d\n%s", w, r.Correct, r.Attempted, r.Failed, out)
		}
	}
}

func TestSeededMissing(t *testing.T) {
	tg := target{races: 2}
	if why := seededMissing(varSet{0: true, 1: true, 7: true}, tg); why != "" {
		t.Errorf("all seeded races reported, got %q", why)
	}
	if why := seededMissing(varSet{0: true, 7: true}, tg); why == "" {
		t.Error("a missed seeded race was not reported as a failure")
	}
	if n := falseRaces(varSet{0: true, 1: true, 7: true, 9: true}, tg); n != 2 {
		t.Errorf("falseRaces = %d, want 2", n)
	}
}

func TestParseReport(t *testing.T) {
	out := []byte("FastTrack: 2 warning(s)\n" +
		"  write-read race on x5: thread 2 conflicts with thread 1 (event 9)\n" +
		"  write-write race on x7: thread 1 conflicts with thread 2 (event 11)\n")
	vars, err := parseReport(out)
	if err != nil || !vars.equal(varSet{5: true, 7: true}) {
		t.Fatalf("parseReport = %v, %v", vars, err)
	}
	if _, err := parseReport([]byte("FastTrack: 2 warning(s)\n  write-read race on x5: t\n")); err == nil {
		t.Error("a report listing fewer warnings than it announces was accepted")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, label := tail(xs); v != 90 || label != "p90.0 of 100 samples" {
		t.Errorf("tail of 1..100 = %v (%s), want 90 (p90.0 of 100 samples)", v, label)
	}
	if v, _ := tail(xs[:20]); v != 20 {
		t.Errorf("tail of 1..20 = %v, want the maximum 20", v)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
