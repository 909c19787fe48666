package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fasttrack"
	"fasttrack/client"
	"fasttrack/internal/obs"
	"fasttrack/internal/rr"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// The stream-daemon workload is a closed loop of two client sessions,
// each streaming a seeded sequence of traces to a racedetectd process
// on loopback and waiting for the session's results before starting the
// next one.

// streamSessions is the closed loop's concurrency: one session per CPU
// of the 2-CPU machine the benchmark was sized on.
const streamSessions = 2

// frameEvents is the client's default batch: one wire frame, one
// server-side IngestBatch call.
const frameEvents = 1024

func runStream(cfg config, res *result) error {
	type state struct {
		inputs []*input
		d      *daemon
	}
	st, err := setup(res, func() (state, error) {
		inputs, err := streamInputs(cfg, filepath.Join(cfg.work, "stream"))
		if err != nil {
			return state{}, err
		}
		d, err := startDaemon(cfg)
		return state{inputs, d}, err
	}, func(s state) { s.d.stop() })
	if err != nil {
		return err
	}
	defer st.d.stop()
	for _, in := range st.inputs {
		in.prepare(res, cfg)
	}

	window := cfg.measure()
	if cfg.traced {
		window /= 2
	}
	untraced, loops, err := streamLoop(cfg, res, st.inputs, st.d, window, nil)
	if err != nil {
		return err
	}
	if cfg.traced {
		return tracedStream(cfg, res, st.inputs, st.d, untraced, window)
	}

	var walls, rss []float64
	perIn := map[*input][]float64{}
	for _, s := range untraced {
		walls = append(walls, ms(s.wall))
		perIn[s.in] = append(perIn[s.in], ms(s.wall))
		rss = append(rss, float64(s.rssKB)/1024)
	}
	rate, slowdown := cycleRates(loops)
	res.set("events_per_s", rate)
	res.set("p50_ms", medianOfInputs(perIn))
	t, label := tail(walls)
	res.set("tail_ms", t)
	res.notef("tail_ms: %s (one session, Dial to Results, per sample)", label)
	// A fixed percentile, unlike the tail's, does not climb with the
	// number of sessions a faster daemon fits into the run.
	res.set("peak_rss_mb", percentile(rss, 90))
	res.set("slowdown", slowdown)
	res.set("pass_share", ratio(float64(res.attempted-res.failed), float64(res.attempted)))
	return nil
}

// streamInputs generates the stream traces and their reference race
// sets. The client streams them from memory; the binary trace files
// written to dir only serve the slowdown's base (readFloor).
func streamInputs(cfg config, dir string) ([]*input, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var inputs []*input
	add := func(name string, tr trace.Trace) error {
		in, bin, err := newInput(name, tr)
		if err != nil {
			return err
		}
		in.tr = tr
		in.path = filepath.Join(dir, name+".ftrk")
		inputs = append(inputs, in)
		return os.WriteFile(in.path, bin, 0o644)
	}
	for _, name := range streamProfileNames {
		b, ok := sim.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no profile %q", name)
		}
		if err := add(name, generate(b, cfg.seed, cfg.scale)); err != nil {
			return nil, err
		}
	}
	// The channel profile's schedule is fixed; only its size scales.
	ch := sim.ChanMix()
	if err := add(ch.Name, ch.Generate(cfg.scale, sim.ChanNative)); err != nil {
		return nil, err
	}
	return inputs, nil
}

// sessionResult is one session's outcome.
type sessionResult struct {
	in       *input
	wall     time.Duration // Dial to Results
	analysed int64         // events the daemon reports analysing
	frames   int64
	retries  int64
	rssKB    int64         // the daemon's RSS after the session
	wait     time.Duration // Close until Results, traced sessions only
}

// streamLoop runs the closed loop for window: each session goroutine
// runs whole cycles over the inputs, in its own seeded order, until the
// window has passed. It returns the sessions and each loop's cycles.
func streamLoop(cfg config, res *result, inputs []*input, d *daemon, window time.Duration, sp *spans) ([]sessionResult, [][]cycle, error) {
	type outcome struct {
		s   sessionResult
		ok  bool
		why string
	}
	out := make([][]outcome, streamSessions)
	loops := make([][]cycle, streamSessions)
	errs := make([]error, streamSessions)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for w := 0; w < streamSessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(w)))
			var buf []byte
			for n := 0; time.Now().Before(deadline); n++ {
				var c cycle
				t0 := time.Now()
				for _, i := range rng.Perm(len(inputs)) {
					unit := fmt.Sprintf("s%d.%d.%s", w, n, inputs[i].name)
					s, ok, why := runSession(d.addr, inputs[i], sp, unit)
					s.rssKB = d.statusKB("VmRSS")
					out[w] = append(out[w], outcome{s, ok, why})
					c.events += s.analysed
					c.work += s.wall
				}
				c.wall = time.Since(t0)
				for _, in := range inputs {
					f, err := readFloor(in.path, &buf)
					if err != nil {
						errs[w] = err
						return
					}
					c.floor += f
				}
				loops[w] = append(loops[w], c)
			}
		}(w)
	}
	wg.Wait()
	var all []sessionResult
	for _, worker := range out {
		for _, o := range worker {
			res.unit(o.ok, o.why)
			all = append(all, o.s)
		}
	}
	return all, loops, errors.Join(errs...)
}

// runSession streams one input through one session and checks the
// daemon's results against the reference. A refused, sampled, failed or
// timed-out session is a failure.
func runSession(addr string, in *input, sp *spans, unit string) (sessionResult, bool, string) {
	r := sessionResult{in: in}
	var opts []client.Option
	if sp != nil {
		opts = append(opts, client.WithTracing())
	}
	t0 := time.Now()
	root := sp.begin("session", unit, 0)
	s := sp.begin("client.dial", unit, root)
	sess, err := client.Dial(addr, opts...)
	sp.end(s)
	if err != nil {
		r.wall = time.Since(t0)
		sp.end(root)
		return r, false, fmt.Sprintf("session %s: dial: %v", unit, err)
	}
	s = sp.begin("client.write", unit, root)
	for _, e := range in.tr {
		if err = sess.Write(e); err != nil {
			break
		}
	}
	sp.end(s)
	var results client.Results
	s = sp.begin("client.results_wait", unit, root)
	if err == nil {
		if err = sess.Close(); err == nil {
			results, err = sess.Results()
		}
	}
	r.wait = sp.end(s)
	r.wall = time.Since(t0)
	sp.end(root)
	cs := sess.Stats()
	r.frames, r.retries = cs.FramesSent, cs.Resumes
	if err != nil {
		sess.Close()
		return r, false, fmt.Sprintf("session %s: %v", unit, err)
	}
	r.analysed = results.Events
	vars := racyVars(results.Races)
	switch {
	case results.Events != in.events:
		return r, false, fmt.Sprintf("session %s analysed %d of %d events", unit, results.Events, in.events)
	case !results.Health.Healthy:
		return r, false, fmt.Sprintf("session %s unhealthy: %+v", unit, results.Health)
	case results.Stats.SampledOut != 0:
		return r, false, fmt.Sprintf("session %s ran sampled: %d accesses skipped", unit, results.Stats.SampledOut)
	case !vars.equal(in.ref):
		return r, false, fmt.Sprintf("session %s reported %v, reference %v", unit, vars, in.ref)
	}
	return r, true, ""
}

// daemon is a racedetectd process on loopback.
type daemon struct {
	cmd      *exec.Cmd
	addr     string
	http     string
	stdout   *os.File
	drained  chan struct{}
	stopOnce sync.Once
}

// startDaemon starts racedetectd on ephemeral loopback ports, with its
// pipeline tracer on in traced runs, and waits until it listens.
func startDaemon(cfg config) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0"}
	if cfg.traced {
		args = append(args, "-trace")
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(cfg.bin, "racedetectd"), args...)
	cmd.Stdout = w
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		r.Close()
		w.Close()
		return nil, err
	}
	w.Close()
	d := &daemon{cmd: cmd, stdout: r, drained: make(chan struct{})}
	lines := make(chan string, 2) // the two ready lines
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // nobody is waiting for a ready line any more
			}
		}
	}()
	timeout := time.After(10 * time.Second)
	for d.addr == "" || d.http == "" {
		select {
		case l := <-lines:
			if a, ok := strings.CutPrefix(l, "racedetectd: listening on "); ok {
				d.addr = a
			}
			if a, ok := strings.CutPrefix(l, "racedetectd: http on "); ok {
				d.http = a
			}
		case <-timeout:
			d.stop()
			return nil, fmt.Errorf("racedetectd did not report its addresses")
		}
	}
	return d, nil
}

// statusKB reads a memory field of the daemon's /proc status, in kB.
func (d *daemon) statusKB(field string) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, field+":"); ok {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return n
		}
	}
	return 0
}

// metrics fetches the daemon's /metrics registry snapshot.
func (d *daemon) metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get("http://" + d.http + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// stop drains the daemon with SIGTERM, kills it if the drain takes too
// long, and waits for it and the goroutine reading its output to end.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		exited := make(chan struct{})
		go func() {
			d.cmd.Wait()
			close(exited)
		}()
		select {
		case <-exited:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			<-exited
		}
		<-d.drained
		d.stdout.Close()
	})
}

// tracedStream runs the same closed loop with client spans and the
// daemon's stage tracer, then times the layers the daemon runs
// (framing, decode, Monitor.IngestBatch, the bare detector) in this
// process on the same traces.
func tracedStream(cfg config, res *result, inputs []*input, d *daemon, untraced []sessionResult, window time.Duration) error {
	before, err := d.metrics()
	if err != nil {
		return err
	}
	sp := newSpans()
	traced, _, err := streamLoop(cfg, res, inputs, d, window, sp)
	if err != nil {
		return err
	}
	after, err := d.metrics()
	if err != nil {
		return err
	}

	perIn := map[*input][]float64{}
	for _, s := range untraced {
		perIn[s.in] = append(perIn[s.in], ms(s.wall))
	}
	var untracedSame time.Duration
	var events, frames, retries, rejected int64
	var waits []float64
	for _, s := range traced {
		waits = append(waits, ms(s.wait))
		events += s.in.events
		frames += s.frames
		retries += s.retries
		if s.analysed > 0 {
			rejected += s.in.events - s.analysed
		}
		untracedSame += time.Duration(mean(perIn[s.in]) * float64(time.Millisecond))
	}
	res.set("client.write_ns_per_event", perEvent(sp.total("client.write"), events))
	res.set("client.results_wait_ms", median(waits))
	res.set("client.frames", ratio(float64(frames), float64(len(traced))))
	res.set("client.retries", float64(retries))

	for _, stage := range []string{"wire", "queue", "decode", "detect", "callback"} {
		h := after.Histograms["svc.stage."+stage+".ns"]
		res.set("svc.stage."+stage+"_ns", float64(h.Quantile(0.5)))
	}
	stalls := after.Counter("svc.backpressureStalls") - before.Counter("svc.backpressureStalls")
	svcFrames := after.Counter("svc.framesTotal") - before.Counter("svc.framesTotal")
	res.set("svc.backpressure_stalls_per_frame", ratio(float64(stalls), float64(svcFrames)))
	res.set("svc.queue_depth_peak", float64(after.Gauge("svc.queueDepthPeak")))

	cal, err := calibrateStream(inputs)
	if err != nil {
		return err
	}
	res.set("trace.decode_ns_per_event", perEvent(cal.decode, cal.events))
	res.set("trace.bytes_per_event", ratio(float64(cal.bytes), float64(cal.events)))
	res.set("trace.frame_ns_per_frame", ratio(float64(cal.frame), float64(cal.frames)))
	res.set("monitor.ingest_batch_ns_per_event", perEvent(cal.ingest, cal.events))
	res.set("monitor.rejected", float64(cal.rejected+rejected))
	same, slow := coreShares(cal.stats)
	res.set("core.detect_ns_per_event", perEvent(cal.detect, cal.events))
	res.set("core.same_epoch_share", same)
	res.set("core.slow_path_share", slow)
	res.set("core.vc_ops", float64(cal.stats.VCOp))
	res.set("core.shadow_bytes", float64(cal.shadow))
	res.notef("core counts are for one pass over the %d inputs (%d events); the daemon does not validate feasibility under its default policy, so trace.validate reads zero", len(inputs), cal.events)
	return account(res, sp, cfg, sp.total("session"), untracedSame, "sessions without client spans or daemon stage timing", map[string]time.Duration{
		"client":   sp.total("client.dial") + sp.total("client.write"),
		"svc_wait": sp.total("client.results_wait"),
	})
}

// streamCalibration is the in-process timing of the daemon's layers over
// one pass of the inputs.
type streamCalibration struct {
	events, bytes, frames, rejected int64
	frame, decode, ingest, detect   time.Duration
	stats                           rr.Stats
	shadow                          int64
}

// calibrateStream times, per input: framing each client batch
// (FrameWriter.WriteFrame plus FrameReader.ReadFrame), decoding it
// (Scanner.Scan), ingesting it (Monitor.IngestBatch, configured as the
// daemon configures a session) and the bare detector.
func calibrateStream(inputs []*input) (streamCalibration, error) {
	var c streamCalibration
	for _, in := range inputs {
		var payloads [][]byte
		for i := 0; i < len(in.tr); i += frameEvents {
			var buf bytes.Buffer
			w := trace.NewWriter(&buf, trace.Binary)
			for _, e := range in.tr[i:min(i+frameEvents, len(in.tr))] {
				if err := w.Write(e); err != nil {
					return c, err
				}
			}
			if err := w.Flush(); err != nil {
				return c, err
			}
			payloads = append(payloads, buf.Bytes())
			c.bytes += int64(buf.Len())
		}

		var wire bytes.Buffer
		t0 := time.Now()
		fw := trace.NewFrameWriter(&wire)
		for _, p := range payloads {
			if err := fw.WriteFrame(client.FrameEvents, p); err != nil {
				return c, err
			}
		}
		fr := trace.NewFrameReader(&wire, 0)
		for range payloads {
			if _, _, err := fr.ReadFrame(); err != nil {
				return c, err
			}
		}
		c.frame += time.Since(t0)
		c.frames += int64(len(payloads))

		batches := make([]trace.Trace, len(payloads))
		t0 = time.Now()
		for i, p := range payloads {
			sc := trace.NewScanner(bytes.NewReader(p))
			for sc.Scan() {
				batches[i] = append(batches[i], sc.Event())
			}
			if err := sc.Err(); err != nil {
				return c, err
			}
		}
		c.decode += time.Since(t0)

		mon := fasttrack.NewMonitor(fasttrack.WithDetector("FastTrack"))
		t0 = time.Now()
		for _, b := range batches {
			k, _ := mon.IngestBatch(b)
			c.rejected += int64(len(b) - k)
		}
		c.ingest += time.Since(t0)
		c.rejected += mon.Rejected()

		alone, st := detectorAlone(in.tr)
		c.detect += alone
		c.stats.Merge(st)
		c.shadow = max(c.shadow, st.ShadowBytes)
		c.events += in.events
	}
	return c, nil
}
