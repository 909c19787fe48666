package svc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fasttrack"
	"fasttrack/client"
	"fasttrack/internal/chaos"
	"fasttrack/trace"
)

// pressureTool wraps a sampling-capable detector and lets the test
// dictate the shadow-memory footprint the governor sees, so memory
// pressure can be turned on and off deterministically.
type pressureTool struct {
	fasttrack.Sampled
	shadow *atomic.Int64 // injected ShadowBytes; 0 = report the real one
}

func (p *pressureTool) Stats() fasttrack.Stats {
	st := p.Sampled.Stats()
	if v := p.shadow.Load(); v != 0 {
		st.ShadowBytes = v
	}
	return st
}

// pressureServer boots a server with a manually ticked governor whose
// sessions all analyze through a pressureTool sharing one shadow knob.
func pressureServer(t *testing.T, cfg Config) (*Server, string, *atomic.Int64) {
	t.Helper()
	shadow := &atomic.Int64{}
	cfg.NewMonitor = func(client.Handshake) (*fasttrack.Monitor, string, error) {
		inner, err := fasttrack.NewTool("FastTrack", fasttrack.Hints{})
		if err != nil {
			return nil, "", err
		}
		s, ok := inner.(fasttrack.Sampled)
		if !ok {
			return nil, "", fmt.Errorf("FastTrack tool does not sample")
		}
		return fasttrack.NewMonitor(fasttrack.WithTool(&pressureTool{Sampled: s, shadow: shadow})), "FastTrack", nil
	}
	srv, addr := startServer(t, cfg)
	return srv, addr, shadow
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// httpGET fetches a path from the server's HTTP surface.
func httpGET(t *testing.T, hs *httptest.Server, path string) (int, string) {
	t.Helper()
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get(hs.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(b)
}

// TestFidelityLadderEndToEnd is the degradation demo: an adaptive
// session pushed over its shadow-memory budget is walked down the
// ladder full → sampled → coarse by the governor — visible in
// /sessions and the governor metrics, while the session keeps
// ingesting — and walked back up to full once pressure clears.
func TestFidelityLadderEndToEnd(t *testing.T) {
	const budget = 1 << 20
	cfg := Config{
		GovernorInterval: -1, // ticked manually
		StuckTimeout:     -1, // nothing wedges here
		SessionMemBudget: budget,
	}
	srv, addr, shadow := pressureServer(t, cfg)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	sess, err := client.Dial(addr, client.WithFidelity("adaptive"), client.WithBatchSize(16))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ss := srv.lookup(sess.ID())
	if ss == nil {
		t.Fatal("session not registered")
	}
	if !ss.adaptive || ss.forced {
		t.Fatalf("adaptive=%v forced=%v, want adaptive unforced", ss.adaptive, ss.forced)
	}

	// pump streams one frame of fresh-variable accesses and waits for it
	// to be analyzed, which is the boundary where the worker applies a
	// pending rate change and refreshes the governor's stats snapshot.
	nextVar := uint64(0)
	pump := func() {
		t.Helper()
		for i := 0; i < 64; i++ {
			if err := sess.Write(trace.Wr(0, 1000+nextVar)); err != nil {
				t.Fatal(err)
			}
			nextVar++
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	tick := srv.governorTick

	pump()
	if got := ss.rung.Load(); got != rungFull {
		t.Fatalf("fresh adaptive session on rung %d, want full", got)
	}
	if _, body := httpGET(t, hs, "/sessions"); !strings.Contains(body, `"fidelity": "full"`) {
		t.Errorf("/sessions does not show full fidelity:\n%s", body)
	}

	// Blow the memory budget. Tick 1 requests a stats refresh, the pump
	// delivers it, and two consecutive over-pressure ticks downgrade.
	shadow.Store(2 * budget)
	tick()
	pump()
	tick()
	tick()
	if got := ss.rung.Load(); got != rungSampled {
		t.Fatalf("after 2 pressure ticks: rung %d, want sampled", got)
	}
	pump() // worker applies the sampled rate
	if got := ss.mon.SamplingRate(); got != cfg.DefaultSampleRate && got != 0.25 {
		t.Fatalf("sampling rate %v after downgrade, want server default 0.25", got)
	}

	// Pressure persists: two more ticks reach the coarse rung.
	tick()
	tick()
	if got := ss.rung.Load(); got != rungCoarse {
		t.Fatalf("after 4 pressure ticks: rung %d, want coarse", got)
	}
	eventsBefore := ss.events.Load()
	pump() // still ingesting while degraded
	if got := ss.events.Load(); got != eventsBefore+64 {
		t.Fatalf("coarse session ingested %d events, want %d", got-eventsBefore, 64)
	}
	if got := ss.mon.SamplingRate(); got > 0.04 {
		t.Errorf("coarse sampling rate %v, want default/8", got)
	}
	if _, body := httpGET(t, hs, "/sessions"); !strings.Contains(body, `"fidelity": "coarse(`) {
		t.Errorf("/sessions does not show coarse fidelity:\n%s", body)
	}
	if n := srv.Registry().Snapshot().Counter("svc.governorDowngrades"); n != 2 {
		t.Errorf("governorDowngrades = %d, want 2", n)
	}

	// Pressure clears: the governor waits out the cooldown and the
	// upgrade hysteresis, then climbs back to full one rung at a time.
	shadow.Store(0)
	tick() // requests the refresh that will clear the memory signal
	pump()
	for i := 0; i < 40 && ss.rung.Load() != rungFull; i++ {
		tick()
		pump()
	}
	if got := ss.rung.Load(); got != rungFull {
		t.Fatalf("never recovered to full fidelity, stuck on rung %d", got)
	}
	if got := ss.mon.SamplingRate(); got != 1 {
		t.Errorf("sampling rate %v after recovery, want 1", got)
	}
	if n := srv.Registry().Snapshot().Counter("svc.governorUpgrades"); n != 2 {
		t.Errorf("governorUpgrades = %d, want 2", n)
	}
	if _, body := httpGET(t, hs, "/sessions"); !strings.Contains(body, `"fidelity": "full"`) {
		t.Errorf("/sessions does not show recovered full fidelity:\n%s", body)
	}

	// The degraded stretch skipped some accesses, and the results say so.
	res, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionProbability <= 0 || res.DetectionProbability >= 1 {
		t.Errorf("detection probability %v, want in (0, 1) after a degraded stretch",
			res.DetectionProbability)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionControl drives the server to its session cap: the soft
// limit forces late sessions to start sampled, the hard cap refuses
// with a Retry-After hint, and a retrying dial gets in once capacity
// frees up.
func TestAdmissionControl(t *testing.T) {
	cfg := Config{
		MaxSessions:      5,
		RetryAfterHint:   100 * time.Millisecond,
		GovernorInterval: -1,
	}
	srv, addr := startServer(t, cfg)

	var sessions []*client.Session
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	for i := 0; i < 4; i++ {
		s, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		sessions = append(sessions, s)
		if ss := srv.lookup(s.ID()); ss.forced {
			t.Errorf("session %d forced sampled below the soft limit", i)
		}
	}

	// Session 5 crosses the soft limit (4/5 in use): admitted, but
	// forced to start sampled with a sampled ceiling.
	s5, err := client.Dial(addr) // asks for full
	if err != nil {
		t.Fatal(err)
	}
	sessions = append(sessions, s5)
	ss5 := srv.lookup(s5.ID())
	if !ss5.forced || !ss5.adaptive {
		t.Fatalf("soft-limited session: forced=%v adaptive=%v, want both", ss5.forced, ss5.adaptive)
	}
	if got := ss5.rung.Load(); got != rungSampled {
		t.Fatalf("soft-limited session on rung %d, want sampled", got)
	}
	if n := srv.Registry().Snapshot().Counter("svc.admissionForcedSampled"); n != 1 {
		t.Errorf("admissionForcedSampled = %d, want 1", n)
	}

	// Session 6 hits the hard cap: refused with code session-cap and the
	// configured Retry-After hint (retries disabled so the refusal is
	// counted exactly once).
	_, err = client.Dial(addr, client.WithRetry(0, 0))
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("over-cap dial error %v, want ServerError", err)
	}
	if se.Code != client.ErrCodeSessionCap || !se.Temporary() {
		t.Errorf("over-cap refusal code %q (temporary %v), want session-cap", se.Code, se.Temporary())
	}
	if se.RetryAfter != cfg.RetryAfterHint {
		t.Errorf("RetryAfter = %v, want %v", se.RetryAfter, cfg.RetryAfterHint)
	}
	if n := srv.Registry().Snapshot().Counter("svc.admissionRefused"); n != 1 {
		t.Errorf("admissionRefused = %d, want 1", n)
	}

	// /readyz flags the saturated node; /healthz stays green.
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if code, body := httpGET(t, hs, "/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, `"ready": false`) {
		t.Errorf("/readyz at cap: code %d body %s, want 503 not-ready", code, body)
	}
	if code, body := httpGET(t, hs, "/healthz"); code != http.StatusOK ||
		!strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz at cap: code %d body %s, want 200 ok", code, body)
	}

	// A dial that honors the hint gets in as soon as a slot frees up.
	go func() {
		time.Sleep(30 * time.Millisecond)
		sessions[0].Close()
	}()
	s6, err := client.Dial(addr, client.WithRetry(8, time.Millisecond))
	if err != nil {
		t.Fatalf("retrying dial never admitted: %v", err)
	}
	sessions = append(sessions, s6)

	// s6 filled the freed slot, so the node is at cap again; freeing
	// another slot flips /readyz back to 200.
	if err := sessions[1].Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "closed session to release its slot", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.active < srv.cfg.MaxSessions
	})
	if code, _ := httpGET(t, hs, "/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after a slot freed: code %d, want 200", code)
	}
}

// TestWatchdogQuarantine wedges one session's analysis forever: the
// watchdog must quarantine exactly that session — severing its
// connection, keeping its monitor untouched, and keeping every HTTP
// probe responsive — while its neighbor streams on unharmed and
// Shutdown drains cleanly without waiting for the wedged worker.
func TestWatchdogQuarantine(t *testing.T) {
	wedged := make(chan struct{})
	// Released only after the server has fully drained (cleanup order:
	// this runs after startServer's Shutdown), proving drain never waits
	// for a quarantined worker.
	t.Cleanup(func() { close(wedged) })

	flowing := make(chan struct{})
	close(flowing)
	var monitors atomic.Int32
	cfg := Config{
		GovernorInterval: -1,
		StuckTimeout:     250 * time.Millisecond, // one manual tick of patience
		NewMonitor: func(client.Handshake) (*fasttrack.Monitor, string, error) {
			inner, err := fasttrack.NewTool("FastTrack", fasttrack.Hints{})
			if err != nil {
				return nil, "", err
			}
			gate := flowing
			if monitors.Add(1) == 1 {
				gate = wedged // first session blocks forever
			}
			return fasttrack.NewMonitor(fasttrack.WithTool(&gatedTool{Tool: inner, gate: gate})), "FastTrack", nil
		},
	}
	srv, addr := startServer(t, cfg)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	victim, err := client.Dial(addr, client.WithBatchSize(8), client.WithReadTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := victim.Write(trace.Wr(0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	vs := srv.lookup(victim.ID())
	waitUntil(t, "victim worker to wedge", func() bool { return vs.working.Load() })

	neighbor, err := client.Dial(addr, client.WithBatchSize(16))
	if err != nil {
		t.Fatal(err)
	}
	defer neighbor.Close()
	tr := testTrace(11)
	want := serialRaces(t, tr)

	srv.governorTick()
	if got := vs.stateName(); got != "quarantined" {
		t.Fatalf("victim state %q after watchdog tick, want quarantined", got)
	}
	snap := srv.Registry().Snapshot()
	if n := snap.Gauge("svc.sessionsQuarantined"); n != 1 {
		t.Errorf("sessionsQuarantined = %d, want 1", n)
	}
	if n := snap.Counter("svc.governorQuarantines"); n != 1 {
		t.Errorf("governorQuarantines = %d, want 1", n)
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "svc.session."+victim.ID()+".") {
			t.Errorf("quarantined session metric %s not deleted", name)
		}
	}

	// The neighbor is untouched: full round trip, exact results.
	if err := streamAll(neighbor, tr); err != nil {
		t.Fatal(err)
	}
	if err := neighbor.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := neighbor.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !sameRaces(res.Races, want) {
		t.Errorf("neighbor races diverged after quarantine: got %v want %v", res.Races, want)
	}
	// More ticks must not quarantine the healthy idle neighbor. Its
	// worker finishes the results item just after sending the reply;
	// back-to-back manual ticks would otherwise catch it mid-item with
	// no progress in between, which real ticks StuckTimeout apart never
	// do.
	ns := srv.lookup(neighbor.ID())
	waitUntil(t, "neighbor worker to go idle", func() bool { return !ns.working.Load() })
	srv.governorTick()
	srv.governorTick()
	if got := ns.stateName(); got != "streaming" {
		t.Errorf("neighbor state %q after extra ticks, want streaming", got)
	}

	// Every HTTP surface stays responsive: the stats endpoint must not
	// touch the quarantined monitor (its lock is held by the wedged
	// worker forever).
	if _, body := httpGET(t, hs, "/sessions"); !strings.Contains(body, `"state": "quarantined"`) {
		t.Errorf("/sessions does not show the quarantine:\n%s", body)
	}
	if code, body := httpGET(t, hs, "/sessions/"+victim.ID()+"/stats"); code != http.StatusOK ||
		!strings.Contains(body, "quarantined") {
		t.Errorf("stats endpoint on quarantined session: code %d body %s", code, body)
	}
	if _, body := httpGET(t, hs, "/healthz"); !strings.Contains(body, `"quarantined": 1`) {
		t.Errorf("/healthz does not count the quarantine:\n%s", body)
	}

	// The victim's client fails closed.
	if err := victim.Flush(); err == nil {
		t.Error("Flush on quarantined session succeeded")
	}
}

// TestReconnectResume severs a session's connection server-side: the
// client redials under its original lineage with a bumped epoch, keeps
// streaming, and the server both tracks the resume and refuses a stale
// replay of the old epoch.
func TestReconnectResume(t *testing.T) {
	srv, addr := startServer(t, Config{GovernorInterval: -1})
	sess, err := client.Dial(addr, client.WithBatchSize(16), client.WithReconnect(3),
		client.WithRetry(4, time.Millisecond), client.WithReadTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	root := sess.ID()
	if sess.RootID() != root {
		t.Fatalf("RootID %q != first session id %q", sess.RootID(), root)
	}
	for i := 0; i < 64; i++ {
		if err := sess.Write(trace.Wr(0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	srv.lookup(root).conn.Close() // the network "fails"

	// Liveness: writes keep flowing into the resumed session; control
	// ops across the drop are transient and retried.
	var flushErr error
	waitUntil(t, "stream to resume", func() bool {
		for i := 0; i < 16; i++ {
			if err := sess.Write(trace.Wr(0, uint64(1000+i))); err != nil {
				flushErr = err
				return false
			}
		}
		flushErr = sess.Flush()
		return flushErr == nil
	})
	if flushErr != nil {
		t.Fatalf("stream never recovered: %v", flushErr)
	}
	if sess.ID() == root {
		t.Fatal("session id unchanged across resume")
	}
	if got := sess.Stats().Resumes; got != 1 {
		t.Errorf("client Resumes = %d, want 1", got)
	}
	if n := srv.Registry().Snapshot().Counter("svc.sessionResumes"); n != 1 {
		t.Errorf("svc.sessionResumes = %d, want 1", n)
	}
	cur := srv.lookup(sess.ID())
	if cur.resumeOf != root || cur.epoch < 1 {
		t.Errorf("resumed session lineage %q epoch %d, want root %q epoch >= 1",
			cur.resumeOf, cur.epoch, root)
	}
	info := cur.info()
	if info.ResumeOf != root || info.Epoch != cur.epoch {
		t.Errorf("info lineage %q/%d, want %q/%d", info.ResumeOf, info.Epoch, root, cur.epoch)
	}
	if _, err := sess.Results(); err != nil {
		t.Fatalf("Results after resume: %v", err)
	}

	// A duplicate of the dead connection (same lineage, stale epoch)
	// must be refused so no event is double-counted into the lineage.
	srv.mu.Lock()
	last := srv.epochs[root]
	srv.mu.Unlock()
	if last != cur.epoch {
		t.Errorf("epoch registry has %d for %s, want %d", last, root, cur.epoch)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, _ := json.Marshal(client.Handshake{Version: client.ProtocolVersion, ResumeOf: root, Epoch: last})
	if err := trace.NewFrameWriter(conn).WriteFrame(client.FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := trace.NewFrameReader(conn, 0).ReadFrame()
	if err != nil || ft != client.FrameErrorMsg {
		t.Fatalf("stale-epoch handshake: frame %d err %v, want an error frame", ft, err)
	}
	var we client.WireError
	if err := json.Unmarshal(payload, &we); err != nil {
		t.Fatal(err)
	}
	if we.Code != client.ErrCodeStaleEpoch {
		t.Errorf("stale-epoch refusal code %q, want %q", we.Code, client.ErrCodeStaleEpoch)
	}
}

// TestFaultConnLatency trickles a session through a high-latency uplink:
// per-write delays stack far past the idle timeout in aggregate, but no
// single gap exceeds it, so eviction must not misfire and the analysis
// must come back exact.
func TestFaultConnLatency(t *testing.T) {
	srv, addr := startServer(t, Config{IdleTimeout: 300 * time.Millisecond})
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		fc := chaos.NewFaultConn(c)
		fc.WriteDelay = 25 * time.Millisecond
		return fc, nil
	}
	sess, err := client.Dial(addr, client.WithDialFunc(dial), client.WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(21)
	want := serialRaces(t, tr)
	if err := streamAll(sess, tr); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !sameRaces(res.Races, want) {
		t.Errorf("slow-uplink races diverged: got %v want %v", res.Races, want)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Registry().Snapshot().Counter("svc.sessionsEvicted"); n != 0 {
		t.Errorf("%d sessions evicted under per-write latency", n)
	}
}

// TestFaultConnStallEvicted freezes the uplink mid-frame for longer
// than the idle timeout: that IS a dead session as far as the server
// can tell, and it must be evicted (the opposite boundary of the
// slow-but-alive cases above).
func TestFaultConnStallEvicted(t *testing.T) {
	srv, addr := startServer(t, Config{IdleTimeout: 100 * time.Millisecond})
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		fc := chaos.NewFaultConn(c)
		fc.StallAt = 4096 // well past the handshake, inside the event stream
		fc.StallFor = 500 * time.Millisecond
		return fc, nil
	}
	sess, err := client.Dial(addr, client.WithDialFunc(dial),
		client.WithBatchSize(32), client.WithReadTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	id := sess.ID()
	for i := 0; i < 2000; i++ {
		if sess.Write(trace.Wr(0, uint64(i%64))) != nil {
			break // the server hung up mid-stall; that's the point
		}
	}
	sess.Flush() // outcome irrelevant; the reply may be lost to the eviction

	waitUntil(t, "stalled session to be evicted", func() bool {
		return srv.Registry().Snapshot().Counter("svc.sessionsEvicted") == 1
	})
	if got := srv.lookup(id).stateName(); got != "evicted" {
		t.Errorf("stalled session state %q, want evicted", got)
	}
}

// TestChaosSoak is the everything-at-once stability run: many client
// lifecycles racing a connection killer and a fast governor, with
// reconnects and forced degradations, ending in zero active sessions,
// no leaked per-session metrics, and a clean drain. SOAK_SECONDS
// stretches it in CI; the default keeps it test-suite friendly.
func TestChaosSoak(t *testing.T) {
	dur := 1500 * time.Millisecond
	if s := os.Getenv("SOAK_SECONDS"); s != "" {
		secs, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("SOAK_SECONDS=%q: %v", s, err)
		}
		dur = time.Duration(secs * float64(time.Second))
	}
	cfg := Config{
		GovernorInterval: 10 * time.Millisecond,
		StuckTimeout:     5 * time.Second,
		SessionMemBudget: 1 << 30,
		MaxSessions:      6,
		QueueDepth:       16,
		IdleTimeout:      2 * time.Second,
	}
	srv, addr := startServer(t, cfg)
	deadline := time.Now().Add(dur)

	// Connection killer: severs a random live session a few times per
	// soak second, driving the reconnect and lost-session paths.
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		rng := rand.New(rand.NewSource(99))
		for time.Now().Before(deadline) {
			time.Sleep(40 * time.Millisecond)
			srv.mu.Lock()
			var live []*session
			for _, ss := range srv.sessions {
				if ss.state.Load() == stateStreaming {
					live = append(live, ss)
				}
			}
			if len(live) > 0 {
				live[rng.Intn(len(live))].conn.Close()
			}
			srv.mu.Unlock()
		}
	}()

	fidelities := []string{"full", "adaptive", "sampled(0.2)"}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for time.Now().Before(deadline) {
				sess, err := client.Dial(addr,
					client.WithFidelity(fidelities[rng.Intn(len(fidelities))]),
					client.WithBatchSize(16),
					client.WithReconnect(4),
					client.WithRetry(4, time.Millisecond),
					client.WithReadTimeout(2*time.Second))
				if err != nil {
					time.Sleep(5 * time.Millisecond) // cap refusal; try again
					continue
				}
				tr := testTrace(rng.Int63n(64))
				for _, e := range tr {
					if sess.Write(e) != nil {
						break
					}
				}
				sess.Flush() // transient failures are part of the weather
				sess.Close() // so is closing a session the killer already severed
			}
		}(c)
	}
	wg.Wait()
	<-killerDone

	// Quiescence: every session winds down, nothing leaks.
	waitUntil(t, "all sessions to finalize", func() bool {
		return srv.Registry().Snapshot().Gauge("svc.sessionsActive") == 0
	})
	snap := srv.Registry().Snapshot()
	if n := snap.Gauge("svc.sessionsQuarantined"); n != 0 {
		t.Errorf("%d sessions quarantined during soak (nothing wedges here)", n)
	}
	for _, m := range []map[string]int64{snap.Counters, snap.Gauges} {
		for name := range m {
			if strings.HasPrefix(name, "svc.session.") {
				t.Errorf("leaked per-session metric %s", name)
			}
		}
	}
	if snap.Counter("svc.eventsTotal") == 0 {
		t.Error("soak ingested nothing")
	}
	// startServer's cleanup asserts the clean drain.
}
