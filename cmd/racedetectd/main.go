// Command racedetectd is the streaming network ingestion daemon: it
// accepts racedetect client sessions over TCP (see the client package
// for the protocol), runs one monitored detector pipeline per session,
// and serves live session and metrics queries over HTTP.
//
// Usage:
//
//	racedetectd [-addr 127.0.0.1:7766] [-http 127.0.0.1:7767]
//	            [-queue 64] [-max-frame bytes] [-max-sessions 256]
//	            [-idle 5m] [-drain 30s] [-report.dir DIR] [-v]
//	            [-governor 250ms] [-stuck-timeout 30s] [-mem-budget bytes]
//	            [-sample-rate 0.25] [-retry-after 1s]
//	            [-trace] [-trace.slow 50ms] [-trace.spans 256]
//	            [-log-format text|json]
//
// -trace enables the pipeline tracer: sessions that request tracing in
// their handshake get per-frame stage spans (wire gap, queue wait,
// decode, detect, callback) served at /debug/trace, with stage-latency
// histograms in /metrics; frames slower than -trace.slow land in the
// slow-frame log. -log-format json emits structured one-line-JSON
// lifecycle events (session open/end, evictions, quarantines, governor
// rung moves, admission refusals) on stderr, independent of -v.
//
// The governor flags tune the adaptive fidelity layer: every -governor
// tick each adaptive session is checked against its queue and
// shadow-memory (-mem-budget) pressure and moved along the fidelity
// ladder full → sampled(-sample-rate) → coarse → shed, and any session
// whose worker makes no progress for -stuck-timeout is quarantined.
// Admission refusals at the session cap carry the -retry-after redial
// hint.
//
// The HTTP listener (enabled by -http) serves:
//
//	/metrics              the live svc.* metrics registry as JSON
//	/sessions             summaries of live and recently finished sessions
//	/sessions/{id}/races  a session's current race reports (with provenance
//	                      evidence on sessions opened with it)
//	/sessions/{id}/stats  a session's detector statistics and health
//	/debug/trace          recent frame spans and the slow-frame log (-trace)
//	/healthz              liveness (always 200 while serving)
//	/readyz               readiness (503 when draining or at the session cap)
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting,
// lets every session's already-received frames finish analysis,
// finalizes the sessions (writing JSON reports under -report.dir), and
// exits 0. Events a client has received a Flush acknowledgement for are
// never lost to a drain.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"fasttrack/internal/svc"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7766", "TCP listen address for ingestion sessions")
	httpAddr := flag.String("http", "", "HTTP listen address for /metrics and /sessions (disabled if empty)")
	queue := flag.Int("queue", 64, "per-session frame queue depth (bounds buffered-but-unprocessed frames)")
	maxFrame := flag.Int("max-frame", 0, "maximum accepted frame payload in bytes (0 = default 4MiB)")
	maxSessions := flag.Int("max-sessions", 256, "concurrent session cap")
	idle := flag.Duration("idle", 5*time.Minute, "evict sessions idle for this long (0 = never)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM")
	reportDir := flag.String("report.dir", "", "write one JSON report per finished session into this directory")
	governor := flag.Duration("governor", 0, "fidelity governor tick interval (0 = default 250ms, negative = disabled)")
	stuck := flag.Duration("stuck-timeout", 0, "quarantine sessions whose worker makes no progress for this long (0 = default 30s, negative = disabled)")
	memBudget := flag.Int64("mem-budget", 0, "per-session shadow-memory budget in bytes before the governor degrades fidelity (0 = no memory signal)")
	sampleRate := flag.Float64("sample-rate", 0, "default sampled-rung rate for sessions that pick none (0 = default 0.25)")
	retryAfter := flag.Duration("retry-after", 0, "redial hint on session-cap refusals (0 = default 1s)")
	tracing := flag.Bool("trace", false, "enable the pipeline tracer (/debug/trace, svc.stage.* histograms)")
	traceSlow := flag.Duration("trace.slow", 0, "slow-frame log threshold (0 = default 50ms)")
	traceSpans := flag.Int("trace.spans", 0, "recent-span ring capacity (0 = default 256)")
	logFormat := flag.String("log-format", "text", "lifecycle log format: text (free-form, needs -v) or json (structured one-line events)")
	verbose := flag.Bool("v", false, "log per-session lifecycle events")
	flag.Parse()

	logger := log.New(os.Stderr, "racedetectd: ", log.LstdFlags)
	logf := func(string, ...any) {}
	if *verbose {
		logf = logger.Printf
	}

	var eventLog func(svc.Event)
	switch *logFormat {
	case "text":
	case "json":
		// One JSON object per line on stderr, machine-parseable and
		// independent of the free-form -v lines.
		var mu sync.Mutex
		enc := json.NewEncoder(os.Stderr)
		eventLog = func(e svc.Event) {
			mu.Lock()
			defer mu.Unlock()
			enc.Encode(struct {
				Time string `json:"time"`
				svc.Event
			}{time.Now().UTC().Format(time.RFC3339Nano), e})
		}
	default:
		logger.Fatalf("unknown -log-format %q (want text or json)", *logFormat)
	}

	srv := svc.New(svc.Config{
		QueueDepth:         *queue,
		MaxFramePayload:    *maxFrame,
		MaxSessions:        *maxSessions,
		IdleTimeout:        *idle,
		ReportDir:          *reportDir,
		GovernorInterval:   *governor,
		StuckTimeout:       *stuck,
		SessionMemBudget:   *memBudget,
		DefaultSampleRate:  *sampleRate,
		RetryAfterHint:     *retryAfter,
		Tracing:            *tracing,
		SlowFrameThreshold: *traceSlow,
		TraceSpans:         *traceSpans,
		Logf:               logf,
		EventLog:           eventLog,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	// The ready line goes to stdout so supervisors (and the CI harness)
	// can wait for it; with -addr :0 it carries the chosen port.
	fmt.Printf("racedetectd: listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	var httpSrv *http.Server
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			logger.Fatal(err)
		}
		fmt.Printf("racedetectd: http on %s\n", hln.Addr())
		httpSrv = &http.Server{Handler: srv.Handler()}
		go func() {
			if err := httpSrv.Serve(hln); err != nil && err != http.ErrServerClosed {
				logger.Print("http:", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Printf("received %v, draining (budget %v)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Print(err)
			os.Exit(1)
		}
		if httpSrv != nil {
			httpSrv.Shutdown(context.Background())
		}
		logger.Print("drained cleanly")
	case err := <-serveErr:
		if err != nil {
			logger.Fatal(err)
		}
	}
}
