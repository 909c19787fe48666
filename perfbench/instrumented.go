package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"fasttrack/instrument"
)

// The run-instrumented workload runs `racedetect run` on the Go program
// in perfbench/target: instrument, build, execute and analyze, which is
// what a user pays on every run. The program's own build, without
// instrumentation, is the base of the slowdown.

// targetOps is the program's size at --scale 1: handoffs between its
// two workers.
const targetOps = 1000

// plainRuns is how many uninstrumented executions follow each
// instrumented one: the program runs for about a millisecond, with a
// wide spread, so its median needs many samples.
const plainRuns = 10

// target is the program's input, all of it derived from the seed.
type target struct {
	dir      string // package directory
	env      []string
	races    int // seeded races: variables x0 .. x(races-1)
	accesses int // shared-memory accesses the program performs

	// runEnv is env plus a TMPDIR inside the run's scratch directory:
	// racedetect run exits without removing its instrumented module
	// directory, and the run's scratch directory is removed at exit.
	runEnv []string
}

func newTarget(cfg config) target {
	ops := max(10, int(targetOps*cfg.scale))
	races := 2 + int(uint64(cfg.seed)%3)
	env := []string{
		"PERFBENCH_OPS=" + strconv.Itoa(ops),
		"PERFBENCH_SEED=" + strconv.FormatInt(cfg.seed, 10),
		"PERFBENCH_RACES=" + strconv.Itoa(races),
	}
	return target{
		dir:    filepath.Join(cfg.root, "perfbench", "target"),
		env:    env,
		races:  races,
		runEnv: append(env[:len(env):len(env)], "TMPDIR="+cfg.work),
	}
}

var targetLineRE = regexp.MustCompile(`(?m)^perfbench-target: elapsed_ns=(\d+) accesses=(\d+) `)

// parseTarget reads the program's last line: its work time and the
// number of shared-memory accesses it made.
func parseTarget(out []byte) (time.Duration, int, error) {
	m := targetLineRE.FindSubmatch(out)
	if m == nil {
		return 0, 0, fmt.Errorf("no perfbench-target line in the output")
	}
	ns, _ := strconv.ParseInt(string(m[1]), 10, 64)
	acc, _ := strconv.Atoi(string(m[2]))
	return time.Duration(ns), acc, nil
}

// runStats is what the untraced loop measured.
type runStats struct {
	walls []float64 // per invocation, ms
	rss   []float64 // per invocation, peak MB
	work  []float64 // instrumented work time per execution, ns
	plain []float64 // uninstrumented work time per execution, ns
}

func runInstrumented(cfg config, res *result) error {
	tg := newTarget(cfg)
	plainBin := filepath.Join(cfg.work, "target-plain")
	src, err := os.ReadFile(filepath.Join(tg.dir, "main.go"))
	if err != nil {
		return err
	}
	// Set-up builds the program twice: as it is, and instrumented the
	// way racedetect run instruments it, for executions outside
	// racedetect run that add samples to the slowdown.
	instrDir, err := setup(res, func() (string, error) {
		p, err := runProc(filepath.Join(cfg.root, "perfbench"), nil, "go", "build", "-o", plainBin, "./target")
		if err != nil || p.exit != 0 {
			return "", fmt.Errorf("building the target: %v %s", err, lastLines(p.errOut))
		}
		p, err = runProc(cfg.root, tg.env, plainBin)
		if err != nil || p.exit != 0 {
			return "", fmt.Errorf("running the target: %v %s", err, lastLines(p.errOut))
		}
		if _, tg.accesses, err = parseTarget(p.out); err != nil {
			return "", err
		}
		dir, err := os.MkdirTemp(cfg.work, "ft-instrument-")
		if err != nil {
			return "", err
		}
		_, _, _, err = instrumentAndBuild(cfg, tg, dir, nil, "", 0)
		return dir, err
	}, func(dir string) { os.RemoveAll(dir) })
	if err != nil {
		return err
	}
	res.notef("input target %v races=%d accesses=%d sha256=%s", tg.env, tg.races, tg.accesses, digest(src))

	window := cfg.measure()
	if cfg.traced {
		window /= 2
	}
	st, err := runLoop(cfg, res, tg, plainBin, instrDir, window)
	if err != nil {
		return err
	}
	if cfg.traced {
		return tracedRun(cfg, res, tg, plainBin, st, window)
	}
	p50 := median(st.walls)
	res.set("events_per_s", float64(tg.accesses)/(p50/1000))
	res.set("p50_ms", p50)
	t, label := tail(st.walls)
	res.set("tail_ms", t)
	res.notef("tail_ms: %s (one racedetect run invocation per sample)", label)
	res.set("peak_rss_mb", median(st.rss))
	res.set("slowdown", ratio(median(st.work), median(st.plain)))
	res.notef("slowdown: median of %d instrumented over %d uninstrumented executions", len(st.work), len(st.plain))
	res.set("pass_share", ratio(float64(res.attempted-res.failed), float64(res.attempted)))
	return nil
}

// runLoop invokes `racedetect run` until window has passed. Each
// invocation is followed by one execution of the binary instrumented at
// set-up, with the same trace sink, and plainRuns uninstrumented ones.
func runLoop(cfg config, res *result, tg target, plainBin, instrDir string, window time.Duration) (runStats, error) {
	var st runStats
	racedetect := filepath.Join(cfg.bin, "racedetect")
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		p, err := runProc(cfg.root, tg.runEnv, racedetect, "run", "-module", cfg.root, tg.dir)
		if err != nil {
			return st, err
		}
		st.walls = append(st.walls, ms(p.wall))
		st.rss = append(st.rss, float64(p.maxRSSKB)/1024)
		work, why := checkRun(p, tg)
		res.unit(why == "", why)
		if why == "" {
			st.work = append(st.work, float64(work))
		}
		work, err = executeInstrumented(instrDir, tg)
		res.unit(err == nil, fmt.Sprintf("instrumented execution: %v", err))
		if err == nil {
			st.work = append(st.work, float64(work))
		}
		if err := plainExecutions(cfg, tg, plainBin, &st.plain); err != nil {
			return st, err
		}
	}
	return st, nil
}

// instrumentAndBuild is the first half of racedetect run: rewrite the
// target into dir with instrument.Instrument and build it there, with a
// span around each step when sp records.
func instrumentAndBuild(cfg config, tg target, dir string, sp *spans, unit string, parent int) (*instrument.Result, time.Duration, time.Duration, error) {
	s := sp.begin("instrument.rewrite", unit, parent)
	t0 := time.Now()
	ir, err := instrument.Instrument(tg.dir, dir, instrument.Options{ModuleDir: cfg.root})
	rewrite := time.Since(t0)
	sp.end(s)
	if err != nil {
		return nil, 0, 0, err
	}
	s = sp.begin("go.build", unit, parent)
	p, err := runProc(dir, []string{"GOFLAGS=-mod=mod", "GOWORK=off"}, "go", "build", "-o", filepath.Join(dir, "ft.bin"), ".")
	sp.end(s)
	if err != nil || p.exit != 0 {
		return nil, 0, 0, fmt.Errorf("building the instrumented target: %v %s", err, lastLines(p.errOut))
	}
	return ir, rewrite, p.wall, nil
}

// executeInstrumented runs the instrumented binary in dir with the
// trace sink racedetect run uses, writing dir/ft.trace, and returns its
// work time.
func executeInstrumented(dir string, tg target) (time.Duration, error) {
	env := append([]string{"FASTTRACK_MODE=trace", "FASTTRACK_TRACE=" + filepath.Join(dir, "ft.trace")}, tg.env...)
	p, err := runProc(dir, env, filepath.Join(dir, "ft.bin"))
	if err != nil {
		return 0, err
	}
	work, acc, err := parseTarget(p.out)
	if err == nil && (p.exit != 0 || acc != tg.accesses) {
		err = fmt.Errorf("instrumented target: exit %d, %d accesses, want %d", p.exit, acc, tg.accesses)
	}
	return work, err
}

// plainExecutions runs the uninstrumented program plainRuns times.
func plainExecutions(cfg config, tg target, plainBin string, into *[]float64) error {
	for i := 0; i < plainRuns; i++ {
		p, err := runProc(cfg.root, tg.env, plainBin)
		if err != nil {
			return err
		}
		work, _, err := parseTarget(p.out)
		if err != nil || p.exit != 0 {
			return fmt.Errorf("uninstrumented target: exit %d, %v", p.exit, err)
		}
		*into = append(*into, float64(work))
	}
	return nil
}

// checkRun checks one invocation: it must exit 1 (races found), report
// every seeded race and account for the same accesses as the
// uninstrumented program. Other reported variables are false races
// (GC address reuse), counted by the traced run but not failures. It
// returns the instrumented work time and why the invocation failed.
func checkRun(p proc, tg target) (time.Duration, string) {
	if p.exit != 1 {
		return 0, fmt.Sprintf("racedetect run exited %d: %s", p.exit, lastLines(p.errOut))
	}
	work, acc, err := parseTarget(p.out)
	if err != nil {
		return 0, err.Error()
	}
	if acc != tg.accesses {
		return 0, fmt.Sprintf("instrumented target made %d accesses, uninstrumented %d", acc, tg.accesses)
	}
	vars, err := parseReport(p.out)
	if err != nil {
		return 0, err.Error()
	}
	return work, seededMissing(vars, tg)
}

// seededMissing names the seeded races a report missed, or "".
func seededMissing(vars varSet, tg target) string {
	for i := 0; i < tg.races; i++ {
		if !vars[uint64(i)] {
			return fmt.Sprintf("seeded race on x%d missed; reported %v", i, vars)
		}
	}
	return ""
}

// falseRaces counts reported variables that are not seeded races.
func falseRaces(vars varSet, tg target) int {
	n := 0
	for v := range vars {
		if v >= uint64(tg.races) {
			n++
		}
	}
	return n
}

// tracedRun repeats `racedetect run` step by step in this process, with
// a span around each: instrument.Instrument, the go build, the
// instrumented execution (trace sink) and the analysis process. The
// shim's share of the execution is the instrumented work time minus the
// uninstrumented one.
func tracedRun(cfg config, res *result, tg target, plainBin string, untraced runStats, window time.Duration) error {
	sp := newSpans()
	racedetect := filepath.Join(cfg.bin, "racedetect")
	var roots, rewrite, build, analyze, work time.Duration
	var rewrites, accessEvents, traceEvents, traceBytes []float64
	var plain []float64
	var sites, skipped, falseTotal, n int
	deadline := time.Now().Add(window)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		unit := fmt.Sprintf("exec#%d", i)
		dir, err := os.MkdirTemp(cfg.work, "ft-instrument-")
		if err != nil {
			return err
		}
		tracePath := filepath.Join(dir, "ft.trace")

		root := sp.begin("racedetect.run", unit, 0)
		ir, rw, bd, err := instrumentAndBuild(cfg, tg, dir, sp, unit, root)
		if err != nil {
			return err
		}
		rewrite += rw
		build += bd
		rewrites = append(rewrites, ms(rw))
		s := sp.begin("execute", unit, root)
		w, err := executeInstrumented(dir, tg)
		sp.end(s)
		if err != nil {
			return err
		}
		s = sp.begin("analyze", unit, root)
		ap, err := runProc(cfg.root, nil, racedetect, "-tool", "FastTrack", tracePath)
		analyze += sp.end(s)
		roots += sp.end(root)
		if err != nil {
			return err
		}

		vars, err := parseReport(ap.out)
		why := seededMissing(vars, tg)
		if err != nil {
			why = err.Error()
		}
		res.unit(why == "" && ap.exit == 1, fmt.Sprintf("traced analysis %s: exit %d %s", unit, ap.exit, why))
		falseTotal += falseRaces(vars, tg)
		work += w
		tr, err := readTraceFile(tracePath)
		if err != nil {
			return err
		}
		c := tr.Count()
		accessEvents = append(accessEvents, float64(c.Reads+c.Writes))
		traceEvents = append(traceEvents, float64(len(tr)))
		if fi, err := os.Stat(tracePath); err == nil {
			traceBytes = append(traceBytes, float64(fi.Size()))
		}
		sites = ir.Stats.Reads + ir.Stats.Writes + ir.Stats.Forks + ir.Stats.ChanOps + ir.Stats.SyncOps
		skipped = ir.Stats.Skipped
		n++
		os.RemoveAll(dir)
		if err := plainExecutions(cfg, tg, plainBin, &plain); err != nil {
			return err
		}
	}
	base := time.Duration(median(plain))
	shim := work - time.Duration(n)*base
	res.set("instrument.rewrite_ms", median(rewrites))
	res.set("instrument.sites", float64(sites))
	res.set("instrument.skipped", float64(skipped))
	res.set("rt.ns_per_access", float64(shim)/float64(n*tg.accesses))
	res.set("rt.events_per_access", median(accessEvents)/float64(tg.accesses))
	res.set("rt.trace_bytes_per_event", ratio(median(traceBytes), median(traceEvents)))
	res.set("rt.false_races", float64(falseTotal)/float64(n))
	res.notef("rt.false_races is the mean over %d executions (%d in all), not gated: GC address reuse", n, falseTotal)
	untracedSame := time.Duration(float64(n) * mean(untraced.walls) * float64(time.Millisecond))
	return account(res, sp, cfg, roots, untracedSame, "racedetect run invocations", map[string]time.Duration{
		"instrument": rewrite,
		"toolchain":  build,
		"rt":         shim,
		"program":    time.Duration(n) * base,
		"analyze":    analyze,
	})
}
