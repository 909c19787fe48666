package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"fasttrack"
	"fasttrack/internal/obs"
	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// The replay-paper workload runs the racedetect binary with default
// flags, one process at a time, on binary traces of the twelve
// compute-bound Table 1 profiles: the paper's own experiment.

// replayStats is what the untraced loop measured.
type replayStats struct {
	walls  []float64              // per process, ms
	passes []cycle                // per pass over the inputs
	perIn  map[*input]replaySplit // per input
}

type replaySplit struct {
	walls []float64 // ms
	rss   []float64 // peak MB
}

func runReplay(cfg config, res *result) error {
	dir := filepath.Join(cfg.work, "replay")
	inputs, err := setup(res, func() ([]*input, error) { return setupReplay(cfg, dir) }, func([]*input) {})
	if err != nil {
		return err
	}
	for _, in := range inputs {
		in.prepare(res, cfg)
	}
	window := cfg.measure()
	if cfg.traced {
		window /= 2
	}
	st, err := replayLoop(cfg, res, inputs, window)
	if err != nil {
		return err
	}
	if cfg.traced {
		return tracedReplay(cfg, res, inputs, st, window)
	}

	walls := map[*input][]float64{}
	var rss float64
	for in, s := range st.perIn {
		walls[in] = s.walls
		rss = max(rss, median(s.rss))
	}
	rate, slowdown := cycleRates([][]cycle{st.passes})
	res.set("events_per_s", rate)
	res.set("p50_ms", medianOfInputs(walls))
	t, label := tail(st.walls)
	res.set("tail_ms", t)
	res.notef("tail_ms: %s (one racedetect process per sample)", label)
	res.set("peak_rss_mb", rss)
	res.set("slowdown", slowdown)
	res.set("pass_share", ratio(float64(res.attempted-res.failed), float64(res.attempted)))
	return nil
}

// setupReplay generates the traces, writes them as binary trace files
// and computes their reference race sets.
func setupReplay(cfg config, dir string) ([]*input, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var inputs []*input
	for _, b := range replayProfiles() {
		in, bin, err := newInput(b.Name, generate(b, cfg.seed, cfg.scale))
		if err != nil {
			return nil, err
		}
		in.path = filepath.Join(dir, b.Name+".ftrk")
		if err := os.WriteFile(in.path, bin, 0o644); err != nil {
			return nil, err
		}
		inputs = append(inputs, in)
	}
	return inputs, nil
}

// replayLoop runs whole passes over the inputs until window has passed.
func replayLoop(cfg config, res *result, inputs []*input, window time.Duration) (replayStats, error) {
	st := replayStats{perIn: map[*input]replaySplit{}}
	racedetect := filepath.Join(cfg.bin, "racedetect")
	var buf []byte
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		var pass cycle
		t0 := time.Now()
		for _, in := range inputs {
			p, err := runProc(cfg.root, nil, racedetect, in.path)
			if err != nil {
				return st, err
			}
			ok, why := checkReplay(p, in)
			res.unit(ok, why)
			st.walls = append(st.walls, ms(p.wall))
			pass.events += in.events
			pass.work += p.wall
			s := st.perIn[in]
			s.walls = append(s.walls, ms(p.wall))
			s.rss = append(s.rss, float64(p.maxRSSKB)/1024)
			st.perIn[in] = s
		}
		pass.wall = time.Since(t0)
		for _, in := range inputs {
			f, err := readFloor(in.path, &buf)
			if err != nil {
				return st, err
			}
			pass.floor += f
		}
		st.passes = append(st.passes, pass)
	}
	return st, nil
}

// checkReplay compares one racedetect process's report with the
// reference race set.
func checkReplay(p proc, in *input) (bool, string) {
	if p.exit != 0 && p.exit != 1 {
		return false, fmt.Sprintf("racedetect %s exited %d: %s", in.name, p.exit, lastLines(p.errOut))
	}
	vars, err := parseReport(p.out)
	if err != nil {
		return false, fmt.Sprintf("racedetect %s: %v", in.name, err)
	}
	if (p.exit == 1) != (len(vars) > 0) {
		return false, fmt.Sprintf("racedetect %s exited %d with %d racy variables", in.name, p.exit, len(vars))
	}
	if !vars.equal(in.ref) {
		return false, fmt.Sprintf("racedetect %s reported %v, reference %v", in.name, vars, in.ref)
	}
	return true, ""
}

// calibrateReplay times the bare detector on every input.
func calibrateReplay(inputs []*input) (map[*input]time.Duration, map[*input]rr.Stats, error) {
	alone := map[*input]time.Duration{}
	stats := map[*input]rr.Stats{}
	for _, in := range inputs {
		tr, err := readTraceFile(in.path)
		if err != nil {
			return nil, nil, err
		}
		alone[in], stats[in] = detectorAlone(tr)
	}
	return alone, stats, nil
}

// readTraceFile decodes a trace file the way racedetect does.
func readTraceFile(path string) (trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if _, err := trace.Sniff(br); err != nil {
		return nil, err
	}
	return trace.ReadBinary(br)
}

// tracedReplay repeats racedetect's default path in this process, with
// a span around each module call: decode (trace.ReadBinary), validate
// (Trace.Validate) and dispatch (rr.Dispatcher.Feed into FastTrack).
// The detector's share of the Feed span is the detector-alone time on
// the same trace; the rest of it is the dispatcher's self time.
func tracedReplay(cfg config, res *result, inputs []*input, untraced replayStats, window time.Duration) error {
	alone, stats, err := calibrateReplay(inputs)
	if err != nil {
		return err
	}
	sp := newSpans()
	var roots, decode, validate, feed, core, untracedSame time.Duration
	var events, bytes int64
	deadline := time.Now().Add(window)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, in := range inputs {
			unit := fmt.Sprintf("%s#%d", in.name, pass)
			root := sp.begin("replay", unit, 0)
			s := sp.begin("trace.decode", unit, root)
			tr, err := readTraceFile(in.path)
			decode += sp.end(s)
			if err != nil {
				return err
			}
			s = sp.begin("trace.validate", unit, root)
			verr := tr.Validate()
			validate += sp.end(s)
			s = sp.begin("rr.feed", unit, root)
			tool, err := fasttrack.NewTool("FastTrack", fasttrack.Hints{Threads: tr.Threads()})
			if err != nil {
				return err
			}
			d := rr.NewDispatcher(tool)
			d.Obs = obs.NewRegistry()
			d.Feed(tr)
			f := sp.end(s)
			feed += f
			races := tool.Races()
			for _, r := range races {
				fmt.Fprintf(io.Discard, "  %s\n", r)
			}
			roots += sp.end(root)

			vars := racyVars(races)
			ok := verr == nil && vars.equal(in.ref)
			res.unit(ok, fmt.Sprintf("traced replay of %s: validate %v, reported %v, reference %v", in.name, verr, vars, in.ref))
			core += min(alone[in], f)
			events += in.events
			if fi, err := os.Stat(in.path); err == nil {
				bytes += fi.Size()
			}
			untracedSame += time.Duration(mean(untraced.perIn[in].walls) * float64(time.Millisecond))
		}
	}

	var passEvents int64
	var sum rr.Stats
	var shadow int64
	for _, in := range inputs {
		st := stats[in]
		sum.Merge(st)
		shadow = max(shadow, st.ShadowBytes)
		passEvents += in.events
	}
	same, slow := coreShares(sum)
	res.set("trace.decode_ns_per_event", perEvent(decode, events))
	res.set("trace.validate_ns_per_event", perEvent(validate, events))
	res.set("trace.bytes_per_event", ratio(float64(bytes), float64(events)))
	res.set("rr.dispatch_self_ns_per_event", perEvent(feed-core, events))
	res.set("core.detect_ns_per_event", perEvent(core, events))
	res.set("core.same_epoch_share", same)
	res.set("core.slow_path_share", slow)
	res.set("core.vc_ops", float64(sum.VCOp))
	res.set("core.shadow_bytes", float64(shadow))
	res.notef("core counts are for one pass over the %d inputs (%d events)", len(inputs), passEvents)
	return account(res, sp, cfg, roots, untracedSame, "racedetect processes, which also start and exit a process", map[string]time.Duration{
		"trace": decode + validate,
		"rr":    feed - core,
		"core":  core,
	})
}
