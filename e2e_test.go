package fasttrack_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// buildOnce compiles the command binaries into a shared temp dir.
var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "fasttrack-bin")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"racedetect", "tracegen", "traceshrink", "racebench", "minirun"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				buildErr = err
				t.Logf("building %s: %v\n%s", tool, err, stderr.String())
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building command binaries: %v", buildErr)
	}
	return binDir
}

func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), bin), args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out.String())
	}
	return out.String(), code
}

// TestEndToEndPipeline drives tracegen -> racedetect -> traceshrink on
// the hedc workload, the full command-line workflow a user would run.
func TestEndToEndPipeline(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "hedc.trace")

	out, code := run(t, "tracegen", "-workload", "hedc", "-scale", "0.2", "-format", "binary", "-o", tracePath)
	if code != 0 {
		t.Fatalf("tracegen failed (%d): %s", code, out)
	}

	out, code = run(t, "racedetect", "-all", tracePath)
	if code != 1 {
		t.Fatalf("racedetect exit = %d, want 1 (races found): %s", code, out)
	}
	if !strings.Contains(out, "FastTrack: 3 warning(s)") {
		t.Errorf("expected 3 FastTrack warnings:\n%s", out)
	}
	if !strings.Contains(out, "Goldilocks: 0 warning(s)") {
		t.Errorf("expected Goldilocks to miss the hedc races:\n%s", out)
	}
	if !strings.Contains(out, "Eraser: 2 warning(s)") {
		t.Errorf("expected 2 Eraser warnings:\n%s", out)
	}

	// Explanation mode pinpoints both halves of each race.
	out, code = run(t, "racedetect", "-explain", tracePath)
	if code != 1 {
		t.Fatalf("explain exit = %d:\n%s", code, out)
	}
	for _, want := range []string{"first access:", "second access:", "CONCURRENT"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}

	// Streaming mode agrees.
	out, code = run(t, "racedetect", "-stream", "-tool", "FastTrack", tracePath)
	if code != 1 || !strings.Contains(out, "FastTrack: 3 warning(s)") {
		t.Errorf("streaming run (%d):\n%s", code, out)
	}

	// Shrink to a minimal witness.
	minPath := filepath.Join(dir, "min.trace")
	out, code = run(t, "traceshrink", "-warns", "FastTrack", "-o", minPath, tracePath)
	if code != 0 {
		t.Fatalf("traceshrink failed (%d): %s", code, out)
	}
	min, err := os.ReadFile(minPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(string(min)), "\n") + 1
	if lines > 4 {
		t.Errorf("minimized witness has %d events, want <= 4:\n%s", lines, min)
	}
}

// TestRacedetectModesAgree: every local replay mode ingests through the
// same Monitor, so apart from its trailer line each prints exactly the
// default run's report; under -policy repair a feasible trace only adds
// the pipeline health line. The -json race lists of the default
// (whole-trace) and -batch 64 runs match too.
func TestRacedetectModesAgree(t *testing.T) {
	trailer := regexp.MustCompile(`(?m)^\(\d+ events(, streamed| via [^)]*)\)\n`)
	dir := t.TempDir()
	for _, w := range []string{"tsp", "hedc"} {
		tracePath := filepath.Join(dir, w+".bin")
		if out, code := run(t, "tracegen", "-workload", w, "-scale", "0.2", "-format", "binary", "-o", tracePath); code != 0 {
			t.Fatalf("tracegen %s failed (%d): %s", w, code, out)
		}
		want, wantCode := run(t, "racedetect", tracePath)
		if wantCode != 1 {
			t.Fatalf("%s: default run exit = %d, want 1 (seeded race):\n%s", w, wantCode, want)
		}
		for _, flags := range [][]string{
			{"-stream"},
			{"-batch", "64"},
			{"-policy", "repair"},
			{"-policy", "repair", "-batch", "64"},
		} {
			out, code := run(t, "racedetect", append(flags, tracePath)...)
			got := trailer.ReplaceAllString(out, "")
			expect := want
			if flags[0] == "-policy" {
				expect += "  pipeline: healthy\n"
			}
			if code != wantCode || got != expect {
				t.Errorf("%s %v: exit %d, output differs from the default run (exit %d):\n%s\nwant:\n%s", w, flags, code, wantCode, out, expect)
			}
		}

		races := func(flags ...string) any {
			t.Helper()
			path := filepath.Join(dir, "report.json")
			if out, code := run(t, "racedetect", append(flags, "-json.file", path, tracePath)...); code != wantCode {
				t.Fatalf("%s %v -json.file: exit %d:\n%s", w, flags, code, out)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var rep struct {
				Tools []struct{ Races any }
			}
			if err := json.Unmarshal(data, &rep); err != nil || len(rep.Tools) != 1 {
				t.Fatalf("%s %v: bad report (%v):\n%s", w, flags, err, data)
			}
			return rep.Tools[0].Races
		}
		if def, batched := races(), races("-batch", "64"); !reflect.DeepEqual(def, batched) {
			t.Errorf("%s: -json race lists differ:\ndefault:   %v\n-batch 64: %v", w, def, batched)
		}
	}
}

// TestRacedetectCleanTrace: a race-free workload exits 0.
func TestRacedetectCleanTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "philo.trace")
	if out, code := run(t, "tracegen", "-workload", "philo", "-scale", "0.2", "-o", tracePath); code != 0 {
		t.Fatalf("tracegen failed: %s", out)
	}
	out, code := run(t, "racedetect", "-tool", "FastTrack", tracePath)
	if code != 0 || !strings.Contains(out, "0 warning(s)") {
		t.Errorf("exit=%d:\n%s", code, out)
	}
}

// TestRacedetectRejectsInfeasible: validation failures are fatal.
func TestRacedetectRejectsInfeasible(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(tracePath, []byte("rel 0 m1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "racedetect", tracePath)
	if code != 2 || !strings.Contains(out, "infeasible") {
		t.Errorf("exit=%d:\n%s", code, out)
	}
}

// TestTracegenList and racedetect -list enumerate workloads and tools.
func TestListFlags(t *testing.T) {
	out, code := run(t, "tracegen", "-list")
	if code != 0 || !strings.Contains(out, "eclipse-startup") || !strings.Contains(out, "tsp") {
		t.Errorf("tracegen -list (%d):\n%s", code, out)
	}
	out, code = run(t, "racedetect", "-list")
	if code != 0 || !strings.Contains(out, "FastTrack") || !strings.Contains(out, "Goldilocks") {
		t.Errorf("racedetect -list (%d):\n%s", code, out)
	}
}

// TestRacebenchSmoke regenerates one small table.
func TestRacebenchSmoke(t *testing.T) {
	out, code := run(t, "racebench", "-table", "2", "-scale", "0.05", "-runs", "1")
	if code != 0 || !strings.Contains(out, "Allocation ratio") {
		t.Errorf("racebench (%d):\n%s", code, out)
	}
	out, code = run(t, "racebench", "-table", "accordion")
	if code != 0 || !strings.Contains(out, "Reduction") {
		t.Errorf("racebench accordion (%d):\n%s", code, out)
	}
}

// TestMinirunScheduleExploration runs the racy and fixed counters of the
// mini language across many schedules: the racy one must warn on every
// schedule, the fixed one on none.
func TestMinirunScheduleExploration(t *testing.T) {
	out, code := run(t, "minirun", "-seeds", "40", "examples/minilang/counter.mini")
	if code != 1 {
		t.Fatalf("racy counter exit = %d:\n%s", code, out)
	}
	if !strings.Contains(out, "detector warned on 40") {
		t.Errorf("expected warnings on all 40 schedules:\n%s", out)
	}
	out, code = run(t, "minirun", "-seeds", "40", "examples/minilang/counter_fixed.mini")
	if code != 0 || !strings.Contains(out, "detector warned on 0") {
		t.Errorf("fixed counter (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "output [2]                  x40") {
		t.Errorf("fixed counter must always print 2:\n%s", out)
	}
}

// TestMinirunExhaustiveExploration verifies the systematic enumerator's
// exact counts on the racy counter and the Velodrome serializability
// split on the atomic example.
func TestMinirunExhaustiveExploration(t *testing.T) {
	out, code := run(t, "minirun", "-explore", "100000", "examples/minilang/counter.mini")
	if code != 1 {
		t.Fatalf("exit = %d:\n%s", code, out)
	}
	if !strings.Contains(out, "EXHAUSTIVE: 2728 schedules; detector warned on 2728") {
		t.Errorf("unexpected exploration summary:\n%s", out)
	}
	out, code = run(t, "minirun", "-explore", "100000", "-tool", "Velodrome",
		"examples/minilang/atomic.mini")
	if code != 1 {
		t.Fatalf("exit = %d:\n%s", code, out)
	}
	for _, want := range []string{
		"EXHAUSTIVE: 252 schedules; detector warned on 200",
		"output [3]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestMinirunSingleRunAndTraceExport runs once, exports the trace, and
// feeds it to racedetect.
func TestMinirunSingleRunAndTraceExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace")
	out, code := run(t, "minirun", "-seed", "5", "-trace-out", tracePath,
		"examples/minilang/counter.mini")
	if code != 1 || !strings.Contains(out, "RACE:") {
		t.Fatalf("minirun (%d):\n%s", code, out)
	}
	out, code = run(t, "racedetect", "-all", tracePath)
	if code != 1 || !strings.Contains(out, "FastTrack: 1 warning(s)") {
		t.Errorf("racedetect on exported trace (%d):\n%s", code, out)
	}
}

// TestRandomTracegen exercises the -random mode end to end.
func TestRandomTracegen(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "rand.trace")
	out, code := run(t, "tracegen", "-random", "-events", "300", "-threads", "4", "-seed", "7", "-o", tracePath)
	if code != 0 {
		t.Fatalf("tracegen -random failed: %s", out)
	}
	if out, code := run(t, "racedetect", "-all", "-stats", tracePath); code > 1 {
		t.Errorf("racedetect on random trace (%d):\n%s", code, out)
	}
}

// TestMinirunFormatMode: -fmt pretty-prints a program that still runs.
func TestMinirunFormatMode(t *testing.T) {
	dir := t.TempDir()
	out, code := run(t, "minirun", "-fmt", "examples/minilang/counter_fixed.mini")
	if code != 0 || !strings.Contains(out, "thread inc1 {") {
		t.Fatalf("fmt (%d):\n%s", code, out)
	}
	formatted := filepath.Join(dir, "fmt.mini")
	if err := os.WriteFile(formatted, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = run(t, "minirun", "-seed", "3", formatted)
	if code != 0 || !strings.Contains(out, "2") {
		t.Errorf("formatted program run (%d):\n%s", code, out)
	}
}
