package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Unit is the trace, session or execution
// the span belongs to; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans records nothing, so untraced code paths call it unchanged.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *spans) begin(name, unit string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.list = append(r.list, span{ID: len(r.list) + 1, Parent: parent, Name: name, Unit: unit, Start: now})
	return len(r.list)
}

// end closes span id and returns its duration.
func (r *spans) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.list[id-1]
	s.End = now
	return s.dur()
}

// total sums the durations of the spans with the given name.
func (r *spans) total(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d time.Duration
	for _, s := range r.list {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// write stores the spans as JSON under dir.
func (r *spans) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	r.mu.Lock()
	b, err := json.Marshal(r.list)
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	return path, os.WriteFile(path, b, 0o644)
}

// account reports the traced wall time split into layer self times and
// the unattributed remainder, next to the same work measured untraced
// as untracedUnit. The self times are given by the workload; the
// remainder is whatever they leave of the traced total.
func account(res *result, sp *spans, cfg config, traced, untraced time.Duration, untracedUnit string, self map[string]time.Duration) error {
	var sum time.Duration
	for layer, d := range self {
		res.set("acct."+layer+"_ms", ms(d))
		sum += d
	}
	rest := traced - sum
	res.set("acct.traced_ms", ms(traced))
	res.set("acct.untraced_ms", ms(untraced))
	res.set("acct.unattributed_ms", ms(rest))
	res.notef("accounting: traced %.1f ms = layers %.1f ms + unattributed %.1f ms", ms(traced), ms(sum), ms(rest))
	res.notef("untraced: %.1f ms for the same work as %s (traced %+.1f%%)",
		ms(untraced), untracedUnit, 100*(ratio(ms(traced), ms(untraced))-1))
	for _, d := range perLayer {
		if v, ok := res.values[d.name]; ok && strings.HasPrefix(d.name, "acct.") {
			res.notef("  %-24s %10.1f ms", d.name, v)
		}
	}
	path, err := sp.write(cfg.spans, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	res.notef("spans: %s", path)
	return nil
}
