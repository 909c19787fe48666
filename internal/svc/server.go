// Package svc implements racedetectd, the streaming network ingestion
// service: a TCP daemon that multiplexes concurrent analysis sessions,
// each backed by its own Monitor running behind the validation and
// quarantine pipeline. One connection carries one session; frames are
// the trace package's CRC framing and the protocol (handshake, event
// chunks, flush acknowledgements, result queries) is defined by the
// public client package, which this package shares its wire types with.
//
// Architecture per connection:
//
//	reader goroutine ── bounded queue ──> worker goroutine ──> Monitor
//
// The reader parses frames and enqueues them; the worker drains the
// queue strictly in order, ingesting event chunks and answering control
// frames. The queue is the backpressure mechanism: when it is full the
// reader blocks, the kernel's TCP window closes, and the client's
// writes stall — a slow analysis never buffers an unbounded backlog.
// Because the worker is the only goroutine touching a session's
// Monitor, sessions need no per-event locking of their own beyond what
// the Monitor does internally.
//
// Shutdown (SIGTERM in the daemon) drains rather than drops: the
// listener closes, every session's connection closes (stopping the
// readers), the workers finish whatever was already queued, and each
// session is finalized — monitor closed, final results snapshotted, a
// JSON report written if a report directory is configured. Events the
// client has received a FlushOK for are therefore always analyzed.
package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fasttrack"
	"fasttrack/client"
	"fasttrack/internal/obs"
	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// Config parameterizes a Server; the zero value is usable.
type Config struct {
	// QueueDepth bounds each session's frame queue (default 64). Together
	// with MaxFramePayload it caps a session's queued-but-unprocessed
	// bytes at QueueDepth * MaxFramePayload.
	QueueDepth int
	// MaxFramePayload bounds accepted frame payloads
	// (trace.DefaultMaxFramePayload if <= 0).
	MaxFramePayload int
	// IdleTimeout evicts sessions that send no frame for this long
	// (0 = never evict).
	IdleTimeout time.Duration
	// HandshakeTimeout bounds the wait for the hello frame on a new
	// connection (default 10s).
	HandshakeTimeout time.Duration
	// WriteTimeout bounds each reply write (default 30s).
	WriteTimeout time.Duration
	// MaxSessions caps concurrent sessions (default 256); excess
	// connections are refused with a session-cap error.
	MaxSessions int
	// RetainFinished is how many finalized sessions stay queryable over
	// HTTP (default 64); older ones are forgotten.
	RetainFinished int
	// ReportDir, when non-empty, receives one <sessionID>.json report per
	// finalized session.
	ReportDir string
	// GovernorInterval is the fidelity governor's tick period (default
	// 250ms; negative disables the loop — tests then drive governorTick
	// directly). See governor.go.
	GovernorInterval time.Duration
	// StuckTimeout is how long a session worker may sit on one item
	// without completing it before the watchdog quarantines the session
	// (default 30s; negative disables the watchdog).
	StuckTimeout time.Duration
	// SessionMemBudget is the per-session shadow-memory pressure threshold
	// in bytes: an adaptive session above it is downgraded one fidelity
	// rung at a time until pressure clears (0 = no memory signal).
	SessionMemBudget int64
	// DefaultSampleRate is the sampled rung's rate for sessions that did
	// not pick one in their handshake (default 0.25).
	DefaultSampleRate float64
	// RetryAfterHint is the Retry-After hint attached to session-cap
	// admission refusals (default 1s).
	RetryAfterHint time.Duration
	// Registry receives the service metrics (svc.* plus per-session
	// svc.session.<id>.*); a private registry is created when nil.
	Registry *obs.Registry
	// NewMonitor overrides session monitor construction, used by tests to
	// install instrumented detectors. The default builds a Monitor from
	// the handshake via BuildMonitor.
	NewMonitor func(client.Handshake) (*fasttrack.Monitor, string, error)
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
	// EventLog, when non-nil, receives structured lifecycle events
	// (session open/end, evictions, quarantines, governor rung moves,
	// admission refusals) in addition to the free-form Logf lines; the
	// daemon's -log-format json wires this to a one-line-JSON emitter.
	EventLog func(Event)
	// Tracing enables the pipeline tracer: sessions that request tracing
	// in their handshake get per-frame stage spans (wire gap, queue wait,
	// decode, detect, callback) in a bounded ring served at /debug/trace,
	// stage-latency histograms in /metrics, and the per-frame trace-ID
	// wire extension. Off by default; per-frame cost when on is a few
	// clock reads and one small allocation.
	Tracing bool
	// SlowFrameThreshold is the processing latency (queue wait through
	// callback, excluding the inter-frame wire gap) above which a traced
	// frame is also kept in the slow-frame log (default 50ms).
	SlowFrameThreshold time.Duration
	// TraceSpans caps the recent-span ring (default 256).
	TraceSpans int
}

// Event is one structured lifecycle event for Config.EventLog. Kind is
// the stable event name: "open", "end", "eviction", "quarantine",
// "downgrade", "upgrade", "refused".
type Event struct {
	Kind     string `json:"event"`
	Session  string `json:"session,omitempty"`
	Remote   string `json:"remote,omitempty"`
	Fidelity string `json:"fidelity,omitempty"` // rung after the event
	Reason   string `json:"reason,omitempty"`
}

// event emits a structured lifecycle event when a sink is configured.
func (s *Server) event(e Event) {
	if s.cfg.EventLog != nil {
		s.cfg.EventLog(e)
	}
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.QueueDepth <= 0 {
		d.QueueDepth = 64
	}
	if d.MaxFramePayload <= 0 {
		d.MaxFramePayload = trace.DefaultMaxFramePayload
	}
	if d.HandshakeTimeout <= 0 {
		d.HandshakeTimeout = 10 * time.Second
	}
	if d.WriteTimeout <= 0 {
		d.WriteTimeout = 30 * time.Second
	}
	if d.MaxSessions <= 0 {
		d.MaxSessions = 256
	}
	if d.RetainFinished <= 0 {
		d.RetainFinished = 64
	}
	if d.GovernorInterval == 0 {
		d.GovernorInterval = 250 * time.Millisecond
	}
	if d.StuckTimeout == 0 {
		d.StuckTimeout = 30 * time.Second
	}
	if d.DefaultSampleRate <= 0 || d.DefaultSampleRate >= 1 {
		d.DefaultSampleRate = 0.25
	}
	if d.RetryAfterHint <= 0 {
		d.RetryAfterHint = time.Second
	}
	if d.SlowFrameThreshold <= 0 {
		d.SlowFrameThreshold = 50 * time.Millisecond
	}
	if d.TraceSpans <= 0 {
		d.TraceSpans = 256
	}
	if d.Registry == nil {
		d.Registry = obs.NewRegistry()
	}
	if d.NewMonitor == nil {
		d.NewMonitor = BuildMonitor
	}
	if d.Logf == nil {
		d.Logf = func(string, ...any) {}
	}
	return d
}

// MaxShards bounds the per-session shard count a handshake may request.
// Shard count drives per-stripe lock and detector-state allocation, so
// without a cap a single handshake could force an arbitrarily large
// allocation before the session has ingested a byte.
const MaxShards = 256

// BuildMonitor constructs a session Monitor from a handshake, returning
// the monitor and the canonical detector name. It is the default
// Config.NewMonitor.
func BuildMonitor(h client.Handshake) (*fasttrack.Monitor, string, error) {
	if h.Shards > MaxShards {
		return nil, "", fmt.Errorf("%s: shards %d exceeds limit %d", client.ErrCodeBadRequest, h.Shards, MaxShards)
	}
	name := h.Tool
	if name == "" {
		name = "FastTrack"
	}
	hints := fasttrack.Hints{Provenance: h.Provenance, DetailedReports: h.Detailed}
	tool, err := fasttrack.NewTool(name, hints)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", client.ErrCodeUnknownTool, err)
	}
	policy := fasttrack.PolicyOff
	if h.Policy != "" {
		p, ok := rr.PolicyFromString(h.Policy)
		if !ok {
			return nil, "", fmt.Errorf("%s: unknown validation policy %q", client.ErrCodeBadRequest, h.Policy)
		}
		policy = p
	}
	gran := fasttrack.Fine
	switch h.Gran {
	case "", "fine":
	case "coarse":
		gran = fasttrack.Coarse
	default:
		return nil, "", fmt.Errorf("%s: unknown granularity %q", client.ErrCodeBadRequest, h.Gran)
	}
	if h.Shards > 1 {
		if _, ok := tool.(fasttrack.ShardedTool); !ok {
			return nil, "", fmt.Errorf("%s: tool %q does not support sharded ingestion", client.ErrCodeBadRequest, name)
		}
		if policy != fasttrack.PolicyOff {
			return nil, "", fmt.Errorf("%s: shards > 1 is incompatible with validation policy %q", client.ErrCodeBadRequest, h.Policy)
		}
	}
	opts := []fasttrack.MonitorOption{
		fasttrack.WithDetector(name),
		fasttrack.WithGranularity(gran),
		fasttrack.WithValidation(policy),
		fasttrack.WithHints(hints),
	}
	if h.Shards > 1 {
		opts = append(opts, fasttrack.WithShards(h.Shards))
	}
	return fasttrack.NewMonitor(opts...), tool.Name(), nil
}

// serverMetrics caches the aggregate svc.* metric handles.
type serverMetrics struct {
	sessionsActive  *obs.Gauge
	sessionsTotal   *obs.Counter
	sessionsFailed  *obs.Counter
	sessionsEvicted *obs.Counter
	framesTotal     *obs.Counter
	eventsTotal     *obs.Counter
	bytesTotal      *obs.Counter
	stalls          *obs.Counter // reader found the session queue full
	errorsTotal     *obs.Counter // error frames sent
	queuePeak       *obs.Gauge   // high-water mark of any session's queue

	sessionsQuarantined    *obs.Gauge   // sessions isolated by the watchdog
	governorDowngrades     *obs.Counter // fidelity rungs moved down
	governorUpgrades       *obs.Counter // fidelity rungs moved up
	governorQuarantines    *obs.Counter // watchdog quarantines
	admissionRefused       *obs.Counter // hard-cap handshake refusals
	admissionForcedSampled *obs.Counter // soft-limit forced-sampled admissions
	resumes                *obs.Counter // sessions admitted as resumes
}

// stageHists are the per-stage frame-latency histograms (nanoseconds),
// published as svc.stage.<name>.ns when tracing is enabled.
type stageHists struct {
	wire, queue, decode, detect, callback *obs.Histogram
}

// Server is the racedetectd session multiplexer.
type Server struct {
	cfg Config
	reg *obs.Registry
	sm  serverMetrics

	// Pipeline tracer state; all nil unless Config.Tracing. spans keeps
	// the most recent traced frames, slow the frames whose processing
	// latency crossed SlowFrameThreshold.
	spans *obs.SpanRing
	slow  *obs.SpanRing
	stage *stageHists

	mu       sync.Mutex
	ln       net.Listener
	sessions map[string]*session
	finished []string // finalized session ids, oldest first, for retention
	active   int
	// activeN mirrors active for lock-free readers: /healthz must stay
	// answerable even when s.mu is wedged (a stalled Serve/Shutdown
	// path must not turn a live process into a probe-dead one). Written
	// only under s.mu, wherever active changes.
	activeN atomic.Int64
	// epochs maps a resume lineage's root session id to the highest epoch
	// admitted for it; a resume handshake must beat it or is refused as
	// stale. epochOrder bounds the map (oldest lineage evicted first).
	epochs     map[string]int64
	epochOrder []string

	nextID      atomic.Int64
	draining    atomic.Bool
	quarantined atomic.Int64 // sessions currently isolated by the watchdog
	wg          sync.WaitGroup

	govStop     chan struct{}
	govStopOnce sync.Once
	govOnce     sync.Once
	stuckTicksN int // governor ticks of zero progress before quarantine
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		sessions: map[string]*session{},
		epochs:   map[string]int64{},
		govStop:  make(chan struct{}),
		sm: serverMetrics{
			sessionsActive:  reg.Gauge("svc.sessionsActive"),
			sessionsTotal:   reg.Counter("svc.sessionsTotal"),
			sessionsFailed:  reg.Counter("svc.sessionsFailed"),
			sessionsEvicted: reg.Counter("svc.sessionsEvicted"),
			framesTotal:     reg.Counter("svc.framesTotal"),
			eventsTotal:     reg.Counter("svc.eventsTotal"),
			bytesTotal:      reg.Counter("svc.bytesTotal"),
			stalls:          reg.Counter("svc.backpressureStalls"),
			errorsTotal:     reg.Counter("svc.errorsTotal"),
			queuePeak:       reg.Gauge("svc.queueDepthPeak"),

			sessionsQuarantined:    reg.Gauge("svc.sessionsQuarantined"),
			governorDowngrades:     reg.Counter("svc.governorDowngrades"),
			governorUpgrades:       reg.Counter("svc.governorUpgrades"),
			governorQuarantines:    reg.Counter("svc.governorQuarantines"),
			admissionRefused:       reg.Counter("svc.admissionRefused"),
			admissionForcedSampled: reg.Counter("svc.admissionForcedSampled"),
			resumes:                reg.Counter("svc.sessionResumes"),
		},
	}
	if cfg.Tracing {
		s.spans = obs.NewSpanRing(cfg.TraceSpans)
		s.slow = obs.NewSpanRing(64)
		s.stage = &stageHists{
			wire:     reg.Histogram("svc.stage.wire.ns"),
			queue:    reg.Histogram("svc.stage.queue.ns"),
			decode:   reg.Histogram("svc.stage.decode.ns"),
			detect:   reg.Histogram("svc.stage.detect.ns"),
			callback: reg.Histogram("svc.stage.callback.ns"),
		}
	}
	// The watchdog's patience in ticks. With a manually ticked governor
	// (GovernorInterval < 0, tests) the default interval still scales the
	// timeout into a tick count.
	if cfg.StuckTimeout > 0 {
		interval := cfg.GovernorInterval
		if interval <= 0 {
			interval = 250 * time.Millisecond
		}
		s.stuckTicksN = int(cfg.StuckTimeout / interval)
		if s.stuckTicksN < 1 {
			s.stuckTicksN = 1
		}
	}
	return s
}

// softLimitedLocked reports whether admission is under soft pressure
// (>= 80% of the session cap in use): new sessions are admitted but
// forced to start sampled. Callers hold s.mu.
func (s *Server) softLimitedLocked() bool {
	return s.active*5 >= s.cfg.MaxSessions*4
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Serve accepts connections on ln until Shutdown (which returns nil
// here) or a listener error. Each connection is handled on its own
// goroutines.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.cfg.GovernorInterval > 0 {
		s.govOnce.Do(func() { go s.governorLoop(s.govStop) })
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		// The draining check and the Add are one step under s.mu:
		// Shutdown sets draining while holding the lock, so once it
		// releases the lock and starts wg.Wait, no handler can slip in
		// between a stale draining check and its Add.
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Shutdown drains the server: it stops accepting, closes every
// session's connection (already-queued frames are still processed), and
// waits — bounded by ctx — for all sessions to finalize and emit their
// reports.
func (s *Server) Shutdown(ctx context.Context) error {
	s.govStopOnce.Do(func() { close(s.govStop) })
	s.mu.Lock()
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	for _, sess := range s.sessions {
		if !sess.done() {
			sess.conn.Close()
		}
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("svc: drain incomplete: %w", ctx.Err())
	}
}

// handleConn performs the handshake, registers the session, and runs
// the reader loop; the worker runs on its own goroutine.
func (s *Server) handleConn(conn net.Conn) {
	ic := &idleConn{Conn: conn}
	fr := trace.NewFrameReader(ic, s.cfg.MaxFramePayload)
	fw := trace.NewFrameWriter(conn)

	conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	t, payload, err := fr.ReadFrame()
	if err != nil || t != client.FrameHello {
		s.refuse(conn, fw, client.ErrCodeProtocol, "expected hello frame")
		return
	}
	var h client.Handshake
	if err := json.Unmarshal(payload, &h); err != nil {
		s.refuse(conn, fw, client.ErrCodeProtocol, "malformed handshake: "+err.Error())
		return
	}
	if h.Version != client.ProtocolVersion {
		s.refuse(conn, fw, client.ErrCodeProtocol,
			fmt.Sprintf("protocol version %d not supported (want %d)", h.Version, client.ProtocolVersion))
		return
	}
	if s.draining.Load() {
		s.refuse(conn, fw, client.ErrCodeDraining, "server is draining")
		return
	}

	// Admission, atomically with the epoch guard: hard cap refuses (with
	// a Retry-After hint), the soft limit forces the session to start
	// sampled, and a resume must beat the lineage's last admitted epoch.
	s.mu.Lock()
	if s.active >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.sm.admissionRefused.Inc()
		s.refuseRetry(conn, fw, client.ErrCodeSessionCap,
			fmt.Sprintf("session cap reached (%d)", s.cfg.MaxSessions), s.cfg.RetryAfterHint)
		return
	}
	if h.ResumeOf != "" {
		if h.Epoch <= s.epochs[h.ResumeOf] {
			last := s.epochs[h.ResumeOf]
			s.mu.Unlock()
			s.refuse(conn, fw, client.ErrCodeStaleEpoch,
				fmt.Sprintf("resume epoch %d for %s is not newer than %d", h.Epoch, h.ResumeOf, last))
			return
		}
		s.recordEpochLocked(h.ResumeOf, h.Epoch)
	}
	forced := s.softLimitedLocked()
	s.active++ // reserved; released in finalize
	s.activeN.Store(int64(s.active))
	s.mu.Unlock()

	release := func() {
		s.mu.Lock()
		s.active--
		s.activeN.Store(int64(s.active))
		s.mu.Unlock()
	}

	plan, err := s.resolveFidelity(h, forced)
	if err != nil {
		release()
		code, msg := client.ErrCodeBadRequest, err.Error()
		if c, m, ok := cutCode(msg); ok {
			code, msg = c, m
		}
		s.refuse(conn, fw, code, msg)
		return
	}

	mon, toolName, err := s.cfg.NewMonitor(h)
	if err != nil {
		release()
		code, msg := client.ErrCodeBadRequest, err.Error()
		if c, m, ok := cutCode(msg); ok {
			code, msg = c, m
		}
		s.refuse(conn, fw, code, msg)
		return
	}

	// Apply the starting rate, which doubles as the sampling-capability
	// probe: an explicit sampled/adaptive request needs a tool that can
	// sample, while a merely forced-sampled admission of a full request
	// falls back to an ordinary full session.
	if plan.mode != client.FidelityFull || plan.forced {
		startRate := 1.0
		if plan.start > rungFull {
			startRate = plan.baseRate
		}
		if !mon.SetSamplingRate(startRate) {
			if plan.mode != client.FidelityFull {
				release()
				mon.Close()
				s.refuse(conn, fw, client.ErrCodeBadRequest,
					fmt.Sprintf("tool %q does not support %s fidelity", toolName, plan.mode))
				return
			}
			plan = fidelityPlan{mode: client.FidelityFull, baseRate: plan.baseRate}
		}
	}
	if plan.forced {
		s.sm.admissionForcedSampled.Inc()
	}
	if h.ResumeOf != "" {
		s.sm.resumes.Inc()
	}

	id := fmt.Sprintf("s%06d", s.nextID.Add(1))
	sess := newSession(s, id, conn, fw, mon, toolName, h, plan)
	s.mu.Lock()
	s.sessions[id] = sess
	s.mu.Unlock()
	s.sm.sessionsActive.Add(1)
	s.sm.sessionsTotal.Inc()
	s.cfg.Logf("svc: session %s open (tool=%s policy=%q shards=%d fidelity=%s) from %s",
		id, toolName, h.Policy, h.Shards, sess.fidelityString(plan.start), conn.RemoteAddr())
	s.event(Event{Kind: "open", Session: id, Remote: sess.remote, Fidelity: sess.fidelityString(plan.start)})

	s.wg.Add(1)
	go func() {
		defer sess.workerDone()
		sess.workerLoop()
	}()
	ok := client.HelloOK{
		SessionID:     id,
		Fidelity:      rungNames[plan.start],
		SampleRate:    sess.rateFor(plan.start),
		ForcedSampled: plan.forced,
		Tracing:       sess.traced,
	}
	if err := sess.reply(client.FrameHelloOK, ok); err != nil {
		// The client never saw a session; don't read from it.
		conn.Close()
		sess.closeQueue() // worker finalizes on the empty queue
		return
	}
	conn.SetReadDeadline(time.Time{}) // clear the handshake deadline
	ic.timeout = s.cfg.IdleTimeout
	sess.readLoop(fr)
}

// idleConn wraps a session connection so the idle timeout measures gaps
// in byte arrival rather than whole-frame transfer time: once armed,
// every Read refreshes the read deadline, so a slow-but-active client
// streaming a large frame over a slow link is never misclassified as
// idle mid-frame. Read is only called from the session's reader
// goroutine (via its FrameReader), so timeout needs no locking after
// handleConn arms it.
type idleConn struct {
	net.Conn
	timeout time.Duration // 0 = disarmed; the deadline is left untouched
}

func (c *idleConn) Read(p []byte) (int, error) {
	if c.timeout > 0 {
		c.Conn.SetReadDeadline(time.Now().Add(c.timeout))
	}
	return c.Conn.Read(p)
}

// refuse answers a connection that never became a session.
func (s *Server) refuse(conn net.Conn, fw *trace.FrameWriter, code, msg string) {
	s.refuseRetry(conn, fw, code, msg, 0)
}

// refuseRetry is refuse with a Retry-After hint for refusals the client
// should treat as transient (session cap, draining).
func (s *Server) refuseRetry(conn net.Conn, fw *trace.FrameWriter, code, msg string, retryAfter time.Duration) {
	s.sm.errorsTotal.Inc()
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	we := client.WireError{Code: code, Msg: msg}
	if retryAfter > 0 {
		we.RetryAfterMillis = retryAfter.Milliseconds()
	}
	b, _ := json.Marshal(we)
	fw.WriteFrame(client.FrameErrorMsg, b)
	conn.Close()
	s.cfg.Logf("svc: refused %s: %s: %s", conn.RemoteAddr(), code, msg)
	s.event(Event{Kind: "refused", Remote: conn.RemoteAddr().String(), Reason: code + ": " + msg})
}

// maxEpochLineages bounds the resume-epoch map so hostile handshakes
// cannot grow it without bound; the oldest lineages are forgotten first.
const maxEpochLineages = 4096

// recordEpochLocked remembers the highest epoch admitted for a resume
// lineage. Callers hold s.mu.
func (s *Server) recordEpochLocked(root string, epoch int64) {
	if _, ok := s.epochs[root]; !ok {
		s.epochOrder = append(s.epochOrder, root)
		for len(s.epochOrder) > maxEpochLineages {
			delete(s.epochs, s.epochOrder[0])
			s.epochOrder = s.epochOrder[1:]
		}
	}
	s.epochs[root] = epoch
}

// finalized moves a finalized session into the retention window.
func (s *Server) finalized(sess *session) {
	s.mu.Lock()
	s.active--
	s.activeN.Store(int64(s.active))
	s.finished = append(s.finished, sess.id)
	for len(s.finished) > s.cfg.RetainFinished {
		delete(s.sessions, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
	// Metrics go before the gauge drops, so an observer that sees the
	// session inactive never finds its per-session metrics.
	s.reg.DeleteByPrefix("svc.session." + sess.id + ".")
	s.sm.sessionsActive.Add(-1)
	if dir := s.cfg.ReportDir; dir != "" {
		if err := sess.writeReport(dir); err != nil {
			s.cfg.Logf("svc: session %s report: %v", sess.id, err)
		}
	}
	s.cfg.Logf("svc: session %s %s (events=%d frames=%d races=%d)",
		sess.id, sess.stateName(), sess.events.Load(), sess.frames.Load(), sess.raceCount(statsBudget))
	kind := "end"
	if sess.state.Load() == stateEvicted {
		kind = "eviction"
	}
	reason := sess.stateName()
	if e, _ := sess.errMsg.Load().(string); e != "" {
		reason = e
	}
	s.event(Event{Kind: kind, Session: sess.id, Remote: sess.remote,
		Fidelity: sess.fidelityString(sess.rung.Load()), Reason: reason})
}

// lookup returns the session with the given id, live or retained.
func (s *Server) lookup(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// SessionInfo is the HTTP summary of one session.
type SessionInfo struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Tool       string `json:"tool"`
	Events     int64  `json:"events"`
	Frames     int64  `json:"frames"`
	Bytes      int64  `json:"bytes"`
	Races      int    `json:"races"`
	QueueDepth int    `json:"queueDepth"`
	StartedAt  string `json:"startedAt"`
	// Fidelity is the session's current ladder position ("full",
	// "sampled(0.25)", "coarse(0.031)", "shed"); SampleRate is that
	// rung's rate and DetectionProbability the fraction of offered
	// accesses actually analyzed so far.
	Fidelity             string  `json:"fidelity,omitempty"`
	SampleRate           float64 `json:"sampleRate,omitempty"`
	DetectionProbability float64 `json:"detectionProbability,omitempty"`
	Epoch                int64   `json:"epoch,omitempty"`
	ResumeOf             string  `json:"resumeOf,omitempty"`
	Err                  string  `json:"err,omitempty"`
}

// Handler returns the server's HTTP surface: the live metrics registry
// at /metrics plus the session query endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		infos := make([]SessionInfo, 0, len(s.sessions))
		for _, sess := range s.sessions {
			infos = append(infos, sess.info())
		}
		s.mu.Unlock()
		sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
		writeJSON(w, infos)
	})
	mux.HandleFunc("GET /sessions/{id}/races", func(w http.ResponseWriter, r *http.Request) {
		sess := s.lookup(r.PathValue("id"))
		if sess == nil {
			http.Error(w, "no such session", http.StatusNotFound)
			return
		}
		writeJSON(w, sess.results(0))
	})
	mux.HandleFunc("GET /sessions/{id}/stats", func(w http.ResponseWriter, r *http.Request) {
		sess := s.lookup(r.PathValue("id"))
		if sess == nil {
			http.Error(w, "no such session", http.StatusNotFound)
			return
		}
		// tryStats re-checks the quarantine state around a non-blocking
		// lock acquisition, so the watchdog quarantining this session
		// concurrently can never leave the handler blocked on the wedged
		// worker's monitor lock (the old check-then-Stats() sequence
		// could: quarantine landing between the check and the acquire
		// parked the handler behind a lock that is never released).
		st, hl, _ := sess.tryStats(statsBudget)
		writeJSON(w, struct {
			SessionInfo
			Stats  fasttrack.Stats `json:"stats"`
			Health client.Health   `json:"health"`
		}{sess.info(), st, hl})
	})
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		out := struct {
			Enabled         bool       `json:"enabled"`
			SlowThresholdNs int64      `json:"slowThresholdNs,omitempty"`
			Recorded        int64      `json:"recorded"`
			Spans           []obs.Span `json:"spans"`
			Slow            []obs.Span `json:"slow"`
		}{Spans: []obs.Span{}, Slow: []obs.Span{}}
		if s.spans != nil {
			out.Enabled = true
			out.SlowThresholdNs = s.cfg.SlowFrameThreshold.Nanoseconds()
			out.Recorded = s.spans.Recorded()
			out.Spans = s.spans.Snapshot()
			out.Slow = s.slow.Snapshot()
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Liveness: the process is up and serving; governor state is
		// reported but never fails the probe. Reads atomics ONLY — no
		// s.mu — so a stalled Serve/Shutdown path holding the server
		// mutex cannot turn a live process into a probe-dead one (a
		// liveness probe that can deadlock gets the process killed for
		// the exact condition it should survive).
		writeJSON(w, struct {
			Status      string `json:"status"`
			Draining    bool   `json:"draining"`
			Sessions    int64  `json:"sessions"`
			Quarantined int64  `json:"quarantined"`
		}{"ok", s.draining.Load(), s.activeN.Load(), s.quarantined.Load()})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		// Readiness: a draining or hard-capped daemon should get no new
		// work. Unlike /healthz this deliberately holds s.mu: readiness
		// pairs active with the soft-limit predicate and the shed census
		// as one consistent admission snapshot (a torn read could report
		// ready=false with no pressure flag set), and a probe timing out
		// because the mutex is wedged is the right answer for "should new
		// sessions come here".
		s.mu.Lock()
		active := s.active
		soft := s.softLimitedLocked()
		shed := 0
		for _, sess := range s.sessions {
			if sess.state.Load() == stateStreaming && sess.rung.Load() == rungShed {
				shed++
			}
		}
		s.mu.Unlock()
		draining := s.draining.Load()
		ready := !draining && active < s.cfg.MaxSessions
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, struct {
			Ready          bool  `json:"ready"`
			Draining       bool  `json:"draining"`
			ActiveSessions int   `json:"activeSessions"`
			MaxSessions    int   `json:"maxSessions"`
			SoftLimited    bool  `json:"softLimited"`
			Shedding       bool  `json:"shedding"`
			ShedSessions   int   `json:"shedSessions"`
			Quarantined    int64 `json:"quarantined"`
		}{ready, draining, active, s.cfg.MaxSessions, soft, shed > 0, shed, s.quarantined.Load()})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errIdleEvicted marks a read-deadline expiry as an idle eviction.
var errIdleEvicted = errors.New("svc: session evicted after idle timeout")

// writeReport writes a session's final JSON report into dir.
func (sess *session) writeReport(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	report := struct {
		Schema string         `json:"schema"`
		Info   SessionInfo    `json:"session"`
		Result client.Results `json:"result"`
	}{"fasttrack/svc-session/v1", sess.info(), sess.results(0)}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, sess.id+".json"), append(b, '\n'), 0o644)
}
