// Command racedetect runs one or more dynamic race detectors over a
// recorded trace file (text or binary; the format is auto-detected) and
// prints each tool's warnings and statistics.
//
// Usage:
//
//	racedetect [-tool FastTrack] [-all] [-granularity fine|coarse]
//	           [-validate] [-stats] [-policy off|strict|repair|drop]
//	           [-membudget bytes] [-shards N] [-batch N] [-json]
//	           [-fidelity full|sampled(p)|adaptive] [-provenance]
//	           [-json.file out.json] [-metrics.addr :6060] trace-file
//	racedetect -chaos [trace-file]
//
// -provenance runs the provenance flight recorder (FastTrack only):
// each warning then carries the vector clocks of both accesses, the
// exact happens-before comparison that failed, the racing threads'
// recent release/acquire chains, and a rendered "why this is a race"
// explanation — in the text output, the -json report, and (with
// -server) the daemon's results. Costs roughly one clock copy per
// analyzed access; see BENCH_provenance.json.
//
// Every local run ingests through a fasttrack.Monitor, the same
// pipeline racedetectd sessions and the instrumentation shim's local sink
// use, in one two-stage pipeline: a decode goroutine scans the trace (and,
// under -policy off, checks its feasibility) into fixed-size chunks, and
// the main goroutine feeds each chunk to Monitor.IngestBatch — of every
// tool's Monitor under -all, so the trace is decoded once. Memory is
// bounded by a few chunks, not by the trace. -batch N sets the chunk
// size, and -shards N replays through the lock-striped Monitor. -explain
// (whose happens-before oracle needs the whole trace) and -chaos keep
// their own paths.
//
// -fidelity trades detection probability for analysis cost: sampled(p)
// analyzes the fraction p of the variable space (accesses to the rest
// are counted but not checked — a real race can be missed with
// probability about 1-p, and the report says what fraction was
// analyzed), and adaptive lets the racedetectd governor move the
// session along the full→sampled→coarse→shed ladder under pressure, so
// it requires -server.
//
// With "-" as the file name the trace is read from standard input.
// -chaos runs the fault-injection smoke suite: every registered
// detector is driven through systematically corrupted variants of the
// trace (or of a generated random trace when no file is given),
// asserting that no panic escapes and all degradation is accounted for.
//
// Observability:
//
//	-stats         adds a Table-2-style operation-mix breakdown per tool
//	-json          emits a machine-readable run report on stdout (the
//	               human-readable output moves to stderr); -json.file
//	               writes the report to a file instead
//	-metrics.addr  serves live metrics (JSON at /metrics) and
//	               net/http/pprof while the run is in flight
//	-stream        emits periodic progress lines on stderr (events
//	               processed, rate, races so far, shadow bytes) and a
//	               closing "(N events, streamed)" line
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"fasttrack"
	"fasttrack/client"
	"fasttrack/internal/chaos"
	"fasttrack/internal/hb"
	"fasttrack/internal/rr"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

func main() {
	// Subcommand dispatch must precede flag.Parse: `racedetect run` and
	// `racedetect test` instrument and execute a real Go package, then
	// feed the captured trace back through the flag-based analysis path.
	if len(os.Args) > 1 && (os.Args[1] == "run" || os.Args[1] == "test") {
		runFrontend(os.Args[1], os.Args[2:])
		return
	}

	toolName := flag.String("tool", "FastTrack", "detector to run (see -list)")
	all := flag.Bool("all", false, "run every detector and compare")
	gran := flag.String("granularity", "fine", "shadow granularity: fine or coarse")
	validate := flag.Bool("validate", true, "check trace feasibility")
	stats := flag.Bool("stats", false, "print instrumentation statistics and the operation-mix table")
	explain := flag.Bool("explain", false, "for each FastTrack warning, show both racing accesses and why nothing orders them (implies -tool FastTrack)")
	stream := flag.Bool("stream", false, "print progress lines on stderr and a closing event count (single tool only)")
	policyName := flag.String("policy", "off", "stream-validation policy: off, strict, repair, or drop")
	memBudget := flag.Int64("membudget", 0, "FastTrack shadow-memory budget in bytes (0 = unbounded)")
	shards := flag.Int("shards", 1, "ingest through the lock-striped Monitor with this many stripes (above 1: single tool, -policy off, no -membudget)")
	batch := flag.Int("batch", 0, "feed Monitor.IngestBatch chunks of this many events (0 = 8192)")
	chaosMode := flag.Bool("chaos", false, "run the fault-injection smoke suite over every detector")
	jsonOut := flag.Bool("json", false, "write a machine-readable run report to stdout")
	jsonFile := flag.String("json.file", "", "write the run report to this file instead of stdout")
	metricsAddr := flag.String("metrics.addr", "", "serve live metrics and pprof on this address (e.g. :6060)")
	serverAddr := flag.String("server", "", "stream the trace to a racedetectd daemon at this address instead of analyzing locally")
	fidelity := flag.String("fidelity", "", "analysis fidelity: full, sampled(p), or adaptive (adaptive requires -server)")
	provenance := flag.Bool("provenance", false, "record race provenance: each warning carries clock evidence, the failed happens-before check, the recent sync chain, and a rendered explanation (FastTrack only)")
	traceWire := flag.Bool("trace", false, "request pipeline tracing from the daemon: frames carry trace IDs and per-stage spans land in its /debug/trace (requires -server and a daemon started with -trace)")
	list := flag.Bool("list", false, "list available detectors and exit")
	flag.Parse()

	if *list {
		for _, n := range fasttrack.ToolNames() {
			fmt.Println(n)
		}
		return
	}

	policy, ok := rr.PolicyFromString(*policyName)
	if !ok {
		fatal(fmt.Errorf("unknown policy %q (want off, strict, repair, or drop)", *policyName))
	}

	fidMode, sampleRate, err := client.ParseFidelity(*fidelity)
	if err != nil {
		fatal(err)
	}
	remote := *serverAddr != ""
	if fidMode == client.FidelityAdaptive && !remote {
		fatal(fmt.Errorf("-fidelity adaptive is governed by racedetectd; add -server"))
	}
	if fidMode == client.FidelitySampled && sampleRate == 0 {
		sampleRate = 0.25 // match the daemon's default sampled rung
	}

	if *provenance {
		if *all {
			fatal(fmt.Errorf("-provenance is a FastTrack feature; drop -all"))
		}
		if *toolName != "FastTrack" {
			fatal(fmt.Errorf("-provenance: tool %q does not support provenance recording", *toolName))
		}
	}

	if *chaosMode {
		runChaos(flag.Args())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: racedetect [flags] trace-file")
		fmt.Fprintln(os.Stderr, "       racedetect run|test [flags] package-dir")
		flag.PrintDefaults()
		os.Exit(2)
	}

	g := fasttrack.Fine
	switch *gran {
	case "fine":
	case "coarse":
		g = fasttrack.Coarse
	default:
		fatal(fmt.Errorf("unknown granularity %q", *gran))
	}

	if *traceWire && !remote {
		fatal(fmt.Errorf("-trace spans the client/daemon pipeline; add -server"))
	}
	if remote {
		if *all || *stream || *explain {
			fatal(fmt.Errorf("-server streams a single tool's batch run; drop -all/-stream/-explain"))
		}
		os.Exit(runRemote(flag.Arg(0), *serverAddr, *toolName, *gran, *policyName, *fidelity, *shards, *validate && policy == fasttrack.PolicyOff, *provenance, *traceWire, *jsonOut, *jsonFile))
	}

	ms, err := startMetrics(*metricsAddr)
	if err != nil {
		fatal(err)
	}

	jsonWanted := *jsonOut || *jsonFile != ""
	// With the report on stdout, the human-readable output moves to
	// stderr so stdout stays pure JSON.
	var humanOut io.Writer = os.Stdout
	if jsonWanted && *jsonFile == "" {
		humanOut = os.Stderr
	}
	rep := &runReport{Schema: runReportSchema, Trace: flag.Arg(0), Stream: *stream}
	o := &localRun{
		gran: g, policy: policy, memBudget: *memBudget, shards: *shards, batch: *batch,
		validate: *validate, stream: *stream, sampleRate: sampleRate, stats: *stats,
		jsonWanted: jsonWanted, provenance: *provenance,
		jsonFile: *jsonFile, ms: ms, rep: rep, out: humanOut,
	}

	if sampleRate > 0 && *all {
		fatal(fmt.Errorf("-fidelity samples a single tool's run; drop -all"))
	}

	if *explain {
		// The happens-before oracle needs the whole trace.
		tr, err := readTrace(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if *validate {
			if err := tr.Validate(); err != nil {
				fatal(fmt.Errorf("infeasible trace: %w", err))
			}
		}
		explainRaces(tr, g)
		return
	}

	names := []string{*toolName}
	if *all {
		if *stream {
			fatal(fmt.Errorf("-stream runs a single tool; drop -all"))
		}
		names = []string{"Eraser", "MultiRace", "Goldilocks", "BasicVC", "DJIT+", "FastTrack"}
	}
	if *shards > 1 {
		if *all {
			fatal(fmt.Errorf("-shards runs a single tool; drop -all"))
		}
		if policy != fasttrack.PolicyOff {
			fatal(fmt.Errorf("-shards is incompatible with -policy %s (the stream validator is sequential)", *policyName))
		}
		if *memBudget != 0 {
			fatal(fmt.Errorf("-shards is incompatible with -membudget"))
		}
	}
	exit := o.run(flag.Arg(0), names)
	finishJSON(jsonWanted, rep, *jsonFile)
	os.Exit(exit)
}

// localRun is the configuration of a local analysis, shared by every
// tool it runs: the flags that shape the pipeline and its report.
type localRun struct {
	gran       fasttrack.Granularity
	policy     fasttrack.Policy
	memBudget  int64
	shards     int
	batch      int
	validate   bool
	stream     bool
	sampleRate float64
	stats      bool
	jsonWanted bool
	provenance bool
	jsonFile   string
	ms         *metricsServer
	rep        *runReport
	out        io.Writer
}

// monitor builds the local pipeline for one tool: a Monitor, serial or
// lock-striped, around a tool constructed from the flags.
func (o *localRun) monitor(name string) (*fasttrack.Monitor, fasttrack.Tool) {
	hints := fasttrack.Hints{MemoryBudget: o.memBudget, Provenance: o.provenance}
	// The JSON report renders both access sites of each race, which
	// needs FastTrack's access-history tracking.
	if o.jsonWanted && name == "FastTrack" {
		hints.DetailedReports = true
	}
	tool, err := fasttrack.NewTool(name, hints)
	if err != nil {
		fatal(err)
	}
	applySampleRate(tool, o.sampleRate)
	opts := []fasttrack.MonitorOption{
		fasttrack.WithTool(tool),
		fasttrack.WithGranularity(o.gran),
		fasttrack.WithValidation(o.policy),
	}
	if o.shards > 1 {
		if _, ok := tool.(fasttrack.ShardedTool); !ok {
			fatal(fmt.Errorf("-shards: tool %q does not support sharded ingestion", tool.Name()))
		}
		opts = append(opts, fasttrack.WithShards(o.shards))
	}
	mon := fasttrack.NewMonitor(opts...)
	o.ms.attach(mon.MetricsRegistry())
	return mon, tool
}

// streamChunk is the number of events the decode stage hands the ingest
// stage at a time when -batch is not set.
const streamChunk = 8192

// chunkBuffers is the number of chunk buffers the two stages recycle,
// which bounds the events in memory at chunkBuffers chunks.
const chunkBuffers = 4

// decoded is what the decode stage leaves once it has handed over its
// last chunk.
type decoded struct {
	kept       trace.Trace // every event, when retained for -json
	infeasible error       // the first feasibility violation
	err        error       // the decode error that ended the input
}

// run analyzes the trace with every named tool and returns the exit
// code. It is the only local ingestion loop, a two-stage pipeline: a
// decode goroutine scans the input into fixed-size chunks (-batch N,
// else streamChunk), and this goroutine feeds each chunk, in order, to
// every tool's Monitor.IngestBatch. The trace is decoded once and never
// held whole, except under -json, whose report renders both racing
// accesses by event index.
//
// A file replay is a single feeder, so -shards does not speed the
// analysis up; it exercises the production concurrent path (striped
// locking, watermark slow path, reconciled metrics) against a recorded
// trace, and reports exactly what the serial path reports.
func (o *localRun) run(path string, names []string) int {
	r, closeFn, err := openInput(path)
	if err != nil {
		fatal(err)
	}
	defer closeFn()
	mons := make([]*fasttrack.Monitor, len(names))
	tools := make([]fasttrack.Tool, len(names))
	for i, name := range names {
		mons[i], tools[i] = o.monitor(name)
	}

	size := streamChunk
	if o.batch > 0 {
		size = o.batch
	}
	// Both channels hold every buffer, so neither stage blocks on a send.
	full := make(chan []trace.Event, chunkBuffers)
	free := make(chan []trace.Event, chunkBuffers)
	for range chunkBuffers {
		// A huge -batch grows its buffers only as far as the trace does.
		free <- make([]trace.Event, 0, min(size, streamChunk))
	}
	var dec decoded
	go func() {
		dec = o.decode(trace.NewScanner(r), size, full, free)
		close(full)
	}()

	prog := newProgress()
	var fed int64
	for chunk := range full {
		for _, mon := range mons {
			mon.IngestBatch(chunk)
		}
		fed += int64(len(chunk))
		if o.stream {
			prog.maybeTick(fed, mons[0])
		}
		free <- chunk[:0]
	}
	// The events read before a feasibility or decode error were analyzed
	// too, as they would have been one by one; under -policy off either
	// error aborts before any report is printed.
	if o.policy == fasttrack.PolicyOff {
		if dec.infeasible != nil {
			fatal(fmt.Errorf("infeasible trace: %w", dec.infeasible))
		}
		if dec.err != nil {
			fatal(dec.err)
		}
	}

	trailer := ""
	switch {
	case o.stream:
		prog.final(fed, mons[0])
		trailer = fmt.Sprintf("(%d events, streamed)", fed)
	case o.shards > 1 || o.batch > 0:
		mode := "serial monitor"
		if o.shards > 1 {
			mode = fmt.Sprintf("%d-stripe monitor", o.shards)
		}
		if o.batch > 0 {
			mode += fmt.Sprintf(", batch %d", o.batch)
		}
		trailer = fmt.Sprintf("(%d events via %s)", fed, mode)
	}
	exit := 0
	for i, mon := range mons {
		exit = max(exit, o.report(mon, tools[i], fed, dec.kept, trailer, dec.err))
	}
	return exit
}

// decode is the pipeline's decode stage. It scans the input, checks
// feasibility under -policy off with -validate (the checks of
// Trace.Validate, made online), and sends chunks of size events on full,
// taking each empty buffer from free. It stops at the end of the input,
// a decode error or the first infeasible event.
func (o *localRun) decode(sc *trace.Scanner, size int, full chan<- []trace.Event, free <-chan []trace.Event) decoded {
	var feas *trace.Validator
	if o.policy == fasttrack.PolicyOff && o.validate {
		feas = trace.NewValidator()
	}
	var dec decoded
	chunk := <-free
	for sc.Scan() {
		e := sc.Event()
		if feas != nil {
			if dec.infeasible = feas.Event(e); dec.infeasible != nil {
				break
			}
		}
		if o.jsonWanted {
			dec.kept = append(dec.kept, e)
		}
		if chunk = append(chunk, e); len(chunk) == size {
			full <- chunk
			chunk = <-free
		}
	}
	if len(chunk) > 0 {
		full <- chunk
	}
	dec.err = sc.Err()
	return dec
}

// report prints one tool's run, closed by trailer when it is not empty,
// adds it to the JSON report, and returns the exit code. tr renders the
// racing accesses in JSON (nil when not retained). inputErr, a decode
// error that cut the run short, fails the run after the report, as a
// strict-validation error does.
func (o *localRun) report(mon *fasttrack.Monitor, tool fasttrack.Tool, events int64, tr trace.Trace, trailer string, inputErr error) int {
	races := mon.Races()
	st := mon.Stats()
	health := mon.Health()
	snap := mon.Metrics() // also publishes tool.* and monitor.sharded.*
	var details []fasttrack.DetailedReport
	if o.provenance {
		details = mon.DetailedRaces()
	}

	printReport(o.out, tool, races, st, o.stats)
	printDetails(o.out, details)
	if o.policy != fasttrack.PolicyOff {
		printHealth(o.out, health)
	}
	if trailer != "" {
		fmt.Fprintln(o.out, trailer)
	}
	if o.jsonWanted {
		o.rep.Tools = append(o.rep.Tools, toolReport{
			Tool:    tool.Name(),
			Events:  events,
			Races:   raceReportsDetailed(races, tr, details),
			Stats:   st,
			Health:  healthJSON(health),
			Metrics: snap,
		})
	}
	if health.Err != nil && inputErr == nil {
		inputErr = fmt.Errorf("strict validation: %w", health.Err)
	}
	if inputErr != nil {
		finishJSON(o.jsonWanted, o.rep, o.jsonFile)
		fatal(inputErr)
	}
	if len(races) > 0 {
		return 1
	}
	return 0
}

// applySampleRate starts a tool's sampling tier at the -fidelity rate
// (no-op at 0, i.e. full fidelity); a tool that cannot sample is a
// configuration error, not a silent full-fidelity run.
func applySampleRate(tool fasttrack.Tool, rate float64) {
	if rate <= 0 {
		return
	}
	s, ok := tool.(fasttrack.Sampled)
	if !ok {
		fatal(fmt.Errorf("-fidelity: tool %q does not support sampled analysis", tool.Name()))
	}
	s.SetSamplingRate(rate)
}

// progress emits periodic one-line status reports on stderr during
// streaming runs and refreshes the tool.* gauges so a live /metrics
// scrape sees detector state, not only dispatcher counters.
type progress struct {
	start      time.Time
	last       time.Time
	lastEvents int64
	ticked     bool
}

// progressInterval is the minimum wall-clock spacing of progress lines.
const progressInterval = time.Second

func newProgress() *progress {
	now := time.Now()
	return &progress{start: now, last: now}
}

func (p *progress) maybeTick(events int64, mon *fasttrack.Monitor) {
	now := time.Now()
	if now.Sub(p.last) < progressInterval {
		return
	}
	snap := mon.Metrics() // publishes tool.*
	rate := float64(events-p.lastEvents) / now.Sub(p.last).Seconds()
	fmt.Fprintf(os.Stderr, "racedetect: progress events=%d rate=%.0f/s races=%d shadowBytes=%d\n",
		events, rate, snap.Gauge("tool.races"), snap.Gauge("tool.shadowBytes"))
	p.last = now
	p.lastEvents = events
	p.ticked = true
}

// final prints a closing progress line (only if any were printed, so
// short runs stay quiet) with the whole-run average rate.
func (p *progress) final(events int64, mon *fasttrack.Monitor) {
	if !p.ticked {
		return
	}
	el := time.Since(p.start).Seconds()
	rate := float64(events)
	if el > 0 {
		rate = float64(events) / el
	}
	snap := mon.Metrics()
	fmt.Fprintf(os.Stderr, "racedetect: done events=%d avgRate=%.0f/s races=%d shadowBytes=%d\n",
		events, rate, snap.Gauge("tool.races"), snap.Gauge("tool.shadowBytes"))
}

// finishJSON emits the run report when requested.
func finishJSON(wanted bool, rep *runReport, path string) {
	if !wanted {
		return
	}
	if err := emitJSON(rep, path); err != nil {
		fmt.Fprintln(os.Stderr, "racedetect: writing report:", err)
		os.Exit(2)
	}
}

// printHealth renders the pipeline's degradation snapshot.
func printHealth(w io.Writer, h fasttrack.Health) {
	if h.Healthy {
		fmt.Fprintln(w, "  pipeline: healthy")
		return
	}
	fmt.Fprintf(w, "  pipeline: violations=%d repaired=%d dropped=%d synthesized=%d panics=%d quarantined=%d\n",
		h.Violations, h.Repaired, h.Dropped, h.Synthesized, h.Panics, h.QuarantinedLocations)
	for _, v := range h.ViolationLog {
		fmt.Fprintf(w, "    %s\n", v)
	}
	for _, p := range h.PanicLog {
		fmt.Fprintf(w, "    %s\n", p)
	}
	if h.ToolDisabled {
		fmt.Fprintln(w, "    tool disabled after exceeding the panic budget")
	}
}

// runChaos is the -chaos smoke mode: corrupt a base trace every way the
// harness knows and sweep every registered detector through the result
// under the repair policy, checking the degradation accounting.
func runChaos(args []string) {
	var base trace.Trace
	if len(args) == 1 {
		var err error
		base, err = readTrace(args[0])
		if err != nil {
			fatal(err)
		}
	} else if len(args) == 0 {
		base = sim.RandomTrace(rand.New(rand.NewSource(1)), sim.DefaultRandomConfig())
		fmt.Printf("chaos: no trace file; using a random feasible trace (%d events)\n", len(base))
	} else {
		fatal(fmt.Errorf("-chaos takes at most one trace file"))
	}

	failures := 0
	for _, name := range fasttrack.ToolNames() {
		for _, mode := range chaos.Modes() {
			for _, seed := range []int64{1, 2, 3} {
				tool, err := fasttrack.NewTool(name, fasttrack.Hints{})
				if err != nil {
					fatal(err)
				}
				res := chaos.Run(tool, base, mode, seed, fasttrack.PolicyRepair)
				if err := res.Check(); err != nil {
					failures++
					fmt.Printf("FAIL %v\n", err)
					continue
				}
				if seed == 1 {
					h := res.Health
					fmt.Printf("  %-16s %-12s events=%-5d races=%-3d violations=%-4d repaired=%-4d dropped=%-4d\n",
						name, mode, res.Events, res.Races, h.Violations, h.Repaired, h.Dropped)
				}
			}
		}
	}
	if failures > 0 {
		fatal(fmt.Errorf("chaos: %d accounting failure(s)", failures))
	}
	fmt.Println("chaos: OK")
}

// explainRaces runs FastTrack with detailed reports and renders, for
// each warning, both racing accesses and the happens-before evidence (or
// its absence) from the oracle.
func explainRaces(tr trace.Trace, g fasttrack.Granularity) {
	tool, err := fasttrack.NewTool("FastTrack", fasttrack.Hints{DetailedReports: true})
	if err != nil {
		fatal(err)
	}
	races := fasttrack.Replay(tr, tool, g)
	fmt.Printf("FastTrack: %d warning(s)\n", len(races))
	if len(races) == 0 {
		return
	}
	oracle := hb.New(tr)
	for _, r := range races {
		fmt.Printf("\n%s\n", r)
		if r.PrevIndex < 0 || r.Index >= len(tr) {
			fmt.Println("  (no recorded prior access; re-run the producer with detailed reports)")
			continue
		}
		fmt.Printf("  first access:  event %d: %s\n", r.PrevIndex, tr[r.PrevIndex])
		fmt.Printf("  second access: event %d: %s\n", r.Index, tr[r.Index])
		ex := oracle.Explain(r.PrevIndex, r.Index)
		for _, line := range strings.Split(ex.Render(tr), "\n") {
			fmt.Printf("  %s\n", line)
		}
	}
	os.Exit(1)
}

func printReport(w io.Writer, tool fasttrack.Tool, races []fasttrack.Report, st fasttrack.Stats, stats bool) {
	fmt.Fprintf(w, "%s: %d warning(s)\n", tool.Name(), len(races))
	for _, r := range races {
		fmt.Fprintf(w, "  %s\n", r)
	}
	// A sampled run's verdict is qualified: accesses outside the sampled
	// variable set were never checked, so "0 warnings" means "0 in the
	// analyzed fraction".
	if st.SampledOut > 0 {
		fmt.Fprintf(w, "  sampled analysis: detection probability %.3f (%d of %d accesses analyzed)\n",
			st.DetectionProbability(), st.Reads+st.Writes-st.SampledOut, st.Reads+st.Writes)
	}
	if stats {
		fmt.Fprintf(w, "  events=%d reads=%d writes=%d syncs=%d vcAlloc=%d vcOps=%d shadowBytes=%d\n",
			st.Events, st.Reads, st.Writes, st.Syncs, st.VCAlloc, st.VCOp, st.ShadowBytes)
		if st.MemSqueezes > 0 {
			fmt.Fprintf(w, "  membudget: squeezes=%d\n", st.MemSqueezes)
		}
		rr.FprintOpsMix(w, tool.Name(), st)
	}
}

// printDetails renders the provenance evidence of each warning, one
// blank-line-separated block per race, indented to match printReport's
// warning lines. The remote path (-server) prints the daemon's details
// through the same function, so local and remote -provenance output is
// byte-identical for the same trace.
func printDetails(w io.Writer, details []fasttrack.DetailedReport) {
	for _, d := range details {
		fmt.Fprintln(w)
		for _, line := range strings.Split(d.Explanation, "\n") {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	if len(details) > 0 {
		fmt.Fprintln(w)
	}
}

// openInput opens the trace source ("-" = stdin).
func openInput(path string) (io.Reader, func(), error) {
	if path == "-" {
		return os.Stdin, func() {}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func readTrace(path string) (trace.Trace, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	br := bufio.NewReader(r)
	isBinary, err := trace.Sniff(br)
	if err != nil {
		return nil, err
	}
	if isBinary {
		return trace.ReadBinary(br)
	}
	return trace.ReadText(br)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "racedetect:", err)
	os.Exit(2)
}
