// Command perfbench is the end-to-end benchmark of the race-detection
// pipeline. One invocation runs one workload for a fixed time and
// prints, as the last line of standard output, a JSON object with the
// keys correct, attempted, failed and metrics.
//
// Usage (from the root of a checkout, after perfbench/run.sh has built
// the binaries it drives):
//
//	perfbench --workload replay-paper|stream-daemon|run-instrumented
//	          --seed N --seconds S --trace 0|1 [--scale F]
//
// With --trace 0 the metrics are the end-to-end ones a user of the
// system sees; with --trace 1 the run records spans around the calls it
// makes into each module and reports the per-layer metrics instead.
// See README.md for the workloads and the layer → metric → workload map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// all of them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"events_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"slowdown", "x"},
	{"setup_s", "s"},
	{"pass_share", "share"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reads zero there.
var perLayer = []metricDef{
	{"instrument.rewrite_ms", "ms"},
	{"instrument.sites", "count"},
	{"instrument.skipped", "count"},
	{"rt.ns_per_access", "ns"},
	{"rt.events_per_access", "ratio"},
	{"rt.trace_bytes_per_event", "B"},
	{"rt.false_races", "count"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.validate_ns_per_event", "ns"},
	{"trace.bytes_per_event", "B"},
	{"trace.frame_ns_per_frame", "ns"},
	{"rr.dispatch_self_ns_per_event", "ns"},
	{"core.detect_ns_per_event", "ns"},
	{"core.same_epoch_share", "share"},
	{"core.slow_path_share", "share"},
	{"core.vc_ops", "count"},
	{"core.shadow_bytes", "B"},
	{"monitor.ingest_batch_ns_per_event", "ns"},
	{"monitor.rejected", "count"},
	{"client.write_ns_per_event", "ns"},
	{"client.results_wait_ms", "ms"},
	{"client.frames", "count"},
	{"client.retries", "count"},
	{"svc.stage.wire_ns", "ns"},
	{"svc.stage.queue_ns", "ns"},
	{"svc.stage.decode_ns", "ns"},
	{"svc.stage.detect_ns", "ns"},
	{"svc.stage.callback_ns", "ns"},
	{"svc.backpressure_stalls_per_frame", "ratio"},
	{"svc.queue_depth_peak", "count"},
	{"acct.traced_ms", "ms"},
	{"acct.untraced_ms", "ms"},
	{"acct.unattributed_ms", "ms"},
	{"acct.instrument_ms", "ms"},
	{"acct.toolchain_ms", "ms"},
	{"acct.rt_ms", "ms"},
	{"acct.program_ms", "ms"},
	{"acct.analyze_ms", "ms"},
	{"acct.trace_ms", "ms"},
	{"acct.rr_ms", "ms"},
	{"acct.core_ms", "ms"},
	{"acct.client_ms", "ms"},
	{"acct.svc_wait_ms", "ms"},
}

// setupReps is how many times a workload sets up; setup_s is the median.
const setupReps = 3

// setup runs one workload's set-up setupReps times and records the
// median time as setup_s. It returns the state of the last repetition
// and hands every earlier one to discard before the next begins.
func setup[T any](res *result, build func() (T, error), discard func(T)) (T, error) {
	var times []float64
	var state T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(state)
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		state = s
	}
	res.set("setup_s", median(times))
	return state, nil
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    float64 // input size multiplier; 1 is the benchmark's size
	root     string  // checkout root
	bin      string  // directory holding racedetect and racedetectd
	work     string  // per-run scratch directory, removed at exit
	spans    string  // directory the traced run writes its spans to

	// corruptRef adds a variable to every reference race set, so that
	// every check must fail (the benchmark's negative test).
	corruptRef bool
}

// measure is the time the workload's timed loop runs for; a traced run
// splits it between an untraced and a traced phase.
func (c config) measure() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// result collects one run's accounting and metrics.
type result struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// unit records one attempted operation and whether it failed; why is
// printed for failures.
func (r *result) unit(ok bool, why string) {
	r.attempted++
	if !ok {
		r.failed++
		r.notef("FAILED: %s", why)
	}
}

type workloadFunc func(cfg config, res *result) error

var workloads = map[string]workloadFunc{
	"replay-paper":     runReplay,
	"stream-daemon":    runStream,
	"run-instrumented": runInstrumented,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: replay-paper, stream-daemon or run-instrumented")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.Float64Var(&cfg.scale, "scale", 1, "input size multiplier (tests use a tiny one)")
	fs.StringVar(&cfg.root, "root", ".", "root of the checkout")
	fs.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding racedetect and racedetectd")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return cfg, fmt.Errorf("--seconds and --scale must be positive")
	}
	cfg.traced = traceFlag == 1
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return cfg, err
	}
	cfg.root = root
	if !filepath.IsAbs(cfg.bin) {
		cfg.bin = filepath.Join(root, cfg.bin)
	}
	return cfg, nil
}

// run executes the configured workload, printing its notes to out, and
// returns the result line.
func run(cfg config, out io.Writer) (string, error) {
	build := filepath.Join(cfg.root, ".bench_build")
	cfg.spans = filepath.Join(build, "spans")
	if err := os.MkdirAll(filepath.Join(build, "work"), 0o755); err != nil {
		return "", err
	}
	work, err := os.MkdirTemp(filepath.Join(build, "work"), cfg.workload+"-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(work)
	cfg.work = work

	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%v scale=%g\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, cfg.scale)
	fmt.Fprintf(out, "env: nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), goVersion(), commit(cfg.root), sourceDigest(cfg.root))

	res := newResult()
	werr := workloads[cfg.workload](cfg, res)
	for _, n := range res.notes {
		fmt.Fprintln(out, n)
	}
	if werr != nil {
		return "", werr
	}
	if res.attempted == 0 {
		return "", errors.New("no operation was attempted")
	}
	return resultLine(cfg, res)
}

// resultLine renders the final JSON object. Every metric of the run's
// kind is present; a missing end-to-end value is an error, a missing
// per-layer value reads zero (the layer is absent from the workload).
func resultLine(cfg config, res *result) (string, error) {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok && !cfg.traced {
			return "", fmt.Errorf("workload did not measure %s", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	return string(b), err
}

func goVersion() string {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		return runtime.Version()
	}
	return strings.TrimSpace(string(out))
}

// commit names the checked-out commit when the checkout is a git
// repository, and "none" otherwise (the source digest still identifies
// the code). Git does not look above the checkout for a repository.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the checkout,
// outside the build directory, in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])[:16]
}
