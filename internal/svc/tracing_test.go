package svc

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fasttrack/client"
	"fasttrack/internal/obs"
	"fasttrack/trace"
)

// racyTrace is a minimal guaranteed write-write race: thread 1 is
// forked, thread 0 writes x3 under a lock, thread 1 writes x3 with no
// synchronization ordering it after.
func racyTrace() trace.Trace {
	return trace.Trace{
		trace.ForkOf(0, 1),
		trace.Acq(0, 5),
		trace.Wr(0, 3),
		trace.Rel(0, 5),
		trace.Wr(1, 3),
	}
}

func TestTracingEndToEnd(t *testing.T) {
	srv, addr := startServer(t, Config{Tracing: true})
	sess, err := client.Dial(addr, client.WithTracing(), client.WithBatchSize(16))
	if err != nil {
		t.Fatal(err)
	}
	if !sess.TracingGranted() {
		t.Fatal("tracing-enabled server did not grant tracing")
	}
	if err := streamAll(sess, testTrace(3)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	clientSpans := sess.TraceSpans()
	if len(clientSpans) == 0 {
		t.Fatal("no client-side spans recorded")
	}
	for _, sp := range clientSpans {
		if sp.TraceID == 0 {
			t.Errorf("client span missing trace ID: %+v", sp)
		}
		if sp.StageNs("enqueue") < 0 || len(sp.Stages) != 2 {
			t.Errorf("client span stages = %+v, want enqueue+write", sp.Stages)
		}
	}

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	code, body := httpGET(t, hs, "/debug/trace")
	if code != 200 {
		t.Fatalf("/debug/trace: HTTP %d", code)
	}
	var dbg struct {
		Enabled         bool       `json:"enabled"`
		SlowThresholdNs int64      `json:"slowThresholdNs"`
		Recorded        int64      `json:"recorded"`
		Spans           []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &dbg); err != nil {
		t.Fatalf("/debug/trace: %v\n%s", err, body)
	}
	if !dbg.Enabled || dbg.SlowThresholdNs <= 0 {
		t.Errorf("enabled=%v slowThresholdNs=%d", dbg.Enabled, dbg.SlowThresholdNs)
	}
	if dbg.Recorded == 0 || len(dbg.Spans) == 0 {
		t.Fatalf("no server spans: recorded=%d spans=%d", dbg.Recorded, len(dbg.Spans))
	}

	// The client-stamped trace ID joins the two sides of the pipeline.
	serverIDs := map[uint64]bool{}
	for _, sp := range dbg.Spans {
		if sp.TraceID == 0 {
			t.Errorf("server span missing trace ID: %+v", sp)
		}
		serverIDs[sp.TraceID] = true
		for _, name := range []string{"wire", "queue", "decode", "detect", "callback"} {
			found := false
			for _, st := range sp.Stages {
				if st.Name == name {
					found = true
				}
			}
			if !found {
				t.Errorf("server span missing stage %q: %+v", name, sp.Stages)
			}
		}
	}
	joined := 0
	for _, sp := range clientSpans {
		if serverIDs[sp.TraceID] {
			joined++
		}
	}
	if joined == 0 {
		t.Error("no client span's trace ID matches a server span")
	}

	// Stage latencies are published as histograms.
	code, body = httpGET(t, hs, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, name := range []string{"svc.stage.detect.ns", "svc.stage.queue.ns"} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTracingNotGrantedWhenServerOff(t *testing.T) {
	srv, addr := startServer(t, Config{}) // tracing off
	sess, err := client.Dial(addr, client.WithTracing(), client.WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	if sess.TracingGranted() {
		t.Error("server without tracing granted it")
	}
	// Frames go out unflagged; the session still works end to end.
	if err := streamAll(sess, testTrace(4)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	// Client-side spans are still recorded (with zero trace IDs).
	if spans := sess.TraceSpans(); len(spans) == 0 {
		t.Error("no client spans on ungranted tracing")
	} else if spans[0].TraceID != 0 {
		t.Errorf("ungranted session stamped trace ID %d", spans[0].TraceID)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	_, body := httpGET(t, hs, "/debug/trace")
	if !strings.Contains(body, `"enabled": false`) {
		t.Errorf("/debug/trace should report disabled: %s", body)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestProvenanceOverWire(t *testing.T) {
	srv, addr := startServer(t, Config{})
	sess, err := client.Dial(addr, client.WithProvenance(), client.WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	id := sess.ID()
	if err := streamAll(sess, racyTrace()); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 1 {
		t.Fatalf("races = %+v, want exactly 1", res.Races)
	}
	if len(res.Detailed) != 1 {
		t.Fatalf("detailed = %+v, want exactly 1", res.Detailed)
	}
	d := res.Detailed[0]
	if d.Report != res.Races[0] {
		t.Errorf("detail embeds %+v, want %+v", d.Report, res.Races[0])
	}
	if d.Explanation == "" || d.FailedCheck == "" || len(d.AccessClock) == 0 {
		t.Errorf("detail missing evidence: %+v", d)
	}
	if !strings.Contains(d.Explanation, "failed happens-before check") {
		t.Errorf("explanation = %q", d.Explanation)
	}

	// The retained session serves the same evidence over HTTP.
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	code, body := httpGET(t, hs, "/sessions/"+id+"/races")
	if code != 200 {
		t.Fatalf("/sessions/%s/races: HTTP %d", id, code)
	}
	var got client.Results
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Detailed) != 1 || got.Detailed[0].Explanation != d.Explanation {
		t.Errorf("HTTP detailed reports diverge from wire results: %s", body)
	}
}

func TestProvenanceOffKeepsResultsPlain(t *testing.T) {
	_, addr := startServer(t, Config{})
	sess, err := client.Dial(addr, client.WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := streamAll(sess, racyTrace()); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 1 {
		t.Fatalf("races = %+v, want exactly 1", res.Races)
	}
	if res.Detailed != nil {
		t.Errorf("provenance off but Detailed = %+v", res.Detailed)
	}
}

func TestEventLogStructured(t *testing.T) {
	var (
		mu     sync.Mutex
		events []Event
	)
	_, addr := startServer(t, Config{EventLog: func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}})
	sess, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	id := sess.ID()
	if err := streamAll(sess, racyTrace()); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// The server finalizes the session, and logs "end", after it has
	// sent the close reply and the connection has wound down.
	waitUntil(t, "end event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range events {
			if e.Kind == "end" {
				return true
			}
		}
		return false
	})

	mu.Lock()
	defer mu.Unlock()
	var open, end *Event
	for i := range events {
		switch events[i].Kind {
		case "open":
			open = &events[i]
		case "end":
			end = &events[i]
		}
	}
	if open == nil || end == nil {
		t.Fatalf("missing open/end events: %+v", events)
	}
	if open.Session != id || open.Remote == "" || open.Fidelity != "full" {
		t.Errorf("open event = %+v", *open)
	}
	if end.Session != id || end.Reason != "completed" {
		t.Errorf("end event = %+v", *end)
	}
}
