package fasttrack_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"fasttrack/internal/svc"
	"fasttrack/trace"
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
// same two-stage pipeline, so apart from its trailer line each prints
// exactly the default run's report; under -policy repair a feasible
// trace only adds the pipeline health line, and -all prints each tool's
// report as that tool's own run does. The -json race lists agree across
// modes and render both racing accesses from the trace.
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
			{"-shards", "4"},
			{"-membudget", "1048576"},
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

		all, allCode := run(t, "racedetect", "-all", "-stats", tracePath)
		var each string
		eachCode := 0
		for _, tool := range []string{"Eraser", "MultiRace", "Goldilocks", "BasicVC", "DJIT+", "FastTrack"} {
			out, code := run(t, "racedetect", "-tool", tool, "-stats", tracePath)
			each += out
			eachCode = max(eachCode, code)
		}
		if allCode != eachCode || all != each {
			t.Errorf("%s: -all -stats (exit %d) differs from the six single-tool runs (exit %d):\n%s\nwant:\n%s", w, allCode, eachCode, all, each)
		}

		tr := readTraceFile(t, tracePath)
		races := func(flags ...string) []map[string]any {
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
				Tools []struct{ Races []map[string]any }
			}
			if err := json.Unmarshal(data, &rep); err != nil || len(rep.Tools) != 1 {
				t.Fatalf("%s %v: bad report (%v):\n%s", w, flags, err, data)
			}
			return rep.Tools[0].Races
		}
		def := races()
		for _, r := range def {
			for _, f := range [][2]string{{"index", "access"}, {"prevIndex", "prevAccess"}} {
				i, _ := r[f[0]].(float64)
				if got := r[f[1]]; int(i) < 0 || int(i) >= len(tr) || got != tr[int(i)].String() {
					t.Errorf("%s: -json race %v: %s = %v, want the trace's event %v", w, r, f[1], got, r[f[0]])
				}
			}
		}
		for _, flags := range [][]string{{"-batch", "64"}, {"-stream"}, {"-shards", "4"}} {
			if got := races(flags...); !reflect.DeepEqual(def, got) {
				t.Errorf("%s: -json race lists differ:\ndefault: %v\n%v: %v", w, def, flags, got)
			}
		}
	}
}

// readTraceFile decodes a binary trace file.
func readTraceFile(t *testing.T, path string) trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRacedetectPolicyRepair: -policy repair analyzes a damaged trace,
// repairing the unheld release, while the default policy rejects it as
// infeasible before printing any report — locally and over the wire.
func TestRacedetectPolicyRepair(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "damaged.trace")
	if err := os.WriteFile(tracePath, []byte("fork 0 1\nwr 1 x0\nrel 1 m0\nwr 0 x0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "racedetect", "-policy", "repair", "-stats", tracePath)
	if code != 1 || !strings.Contains(out, "repaired=1") || !strings.Contains(out, "FastTrack: 1 warning(s)") {
		t.Errorf("-policy repair: exit %d, want 1 with repaired=1 and one warning:\n%s", code, out)
	}
	warning := regexp.MustCompile(`(?m)^  .* race on x0: .*$`).FindString(out)
	if warning == "" {
		t.Fatalf("-policy repair: no warning line for x0:\n%s", out)
	}
	addr := startDaemon(t)
	out, code = run(t, "racedetect", "-server", addr, "-policy", "repair", tracePath)
	if code != 1 || !strings.Contains(out, "\n"+warning+"\n") {
		t.Errorf("-server -policy repair: exit %d, want 1 with the local warning %q:\n%s", code, warning, out)
	}
	for _, flags := range [][]string{nil, {"-stream"}, {"-server", addr}} {
		out, code = run(t, "racedetect", append(flags, tracePath)...)
		if code != 2 || !strings.HasPrefix(out, "racedetect: infeasible trace: ") || strings.Contains(out, "warning") {
			t.Errorf("%v: exit %d, want 2 with a racedetect: infeasible trace: error and no report:\n%s", flags, code, out)
		}
	}
}

// startDaemon serves racedetectd sessions in-process on a loopback port
// for the test's lifetime and returns the dial address.
func startDaemon(t *testing.T) string {
	t.Helper()
	srv := svc.New(svc.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestRacedetectTruncatedTrace: a binary trace cut mid-event fails the
// run with the position of the torn event.
func TestRacedetectTruncatedTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "tsp.bin")
	if out, code := run(t, "tracegen", "-workload", "tsp", "-scale", "0.2", "-format", "binary", "-o", tracePath); code != 0 {
		t.Fatalf("tracegen failed (%d): %s", code, out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	n := len(readTraceFile(t, tracePath))
	cut := filepath.Join(dir, "cut.bin")
	if err := os.WriteFile(cut, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "racedetect", cut)
	want := regexp.MustCompile(fmt.Sprintf(`racedetect: trace: event %d: unexpected EOF \(at byte \d+\)`, n-1))
	if code != 2 || !want.MatchString(out) || strings.Contains(out, "warning") {
		t.Errorf("truncated trace: exit %d, want 2 and an error matching %q:\n%s", code, want, out)
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
