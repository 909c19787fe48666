package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// TestLemma1InitialStateWellFormed: σ0 is well-formed even as threads
// materialize lazily.
func TestLemma1InitialStateWellFormed(t *testing.T) {
	d := New(4, 4)
	if err := d.CheckWellFormed(); err != nil {
		t.Fatalf("empty state: %v", err)
	}
	for tid := int32(0); tid < 4; tid++ {
		d.thread(tid)
		if err := d.CheckWellFormed(); err != nil {
			t.Fatalf("after materializing thread %d: %v", tid, err)
		}
	}
}

// TestLemma2PreservationProperty: every transition preserves
// well-formedness (Lemma 2), property-tested over random feasible traces
// with the invariant checked after every single event.
func TestLemma2PreservationProperty(t *testing.T) {
	cfg := sim.DefaultRandomConfig()
	cfg.Events = 80
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := sim.RandomTrace(rng, cfg)
		d := New(4, 8)
		for i, e := range tr {
			d.HandleEvent(i, e)
			if err := d.CheckWellFormed(); err != nil {
				t.Logf("seed %d, event %d (%s): %v", seed, i, e, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestWellFormedAfterRaces: detecting races must not corrupt the state
// invariants (the detector continues monitoring after a warning).
func TestWellFormedAfterRaces(t *testing.T) {
	d := New(4, 4)
	tr := trace.Trace{
		trace.ForkOf(0, 1),
		trace.ForkOf(0, 2),
		trace.Wr(0, 1),
		trace.Wr(1, 1), // write-write race
		trace.Rd(2, 1), // write-read race (suppressed, same var)
		trace.Rd(0, 2),
		trace.Wr(1, 2), // read-write race
		trace.Rd(0, 3),
		trace.Rd(1, 3),
		trace.Wr(2, 3), // race against shared readers
	}
	for i, e := range tr {
		d.HandleEvent(i, e)
		if err := d.CheckWellFormed(); err != nil {
			t.Fatalf("after event %d (%s): %v", i, e, err)
		}
	}
	if len(d.Races()) == 0 {
		t.Fatal("expected races")
	}
}

// TestWellFormedDetectsCorruption: the checker itself must catch a
// deliberately corrupted state (guards against a vacuous invariant).
func TestWellFormedDetectsCorruption(t *testing.T) {
	d := New(2, 2)
	d.HandleEvent(0, trace.ForkOf(0, 1))
	d.HandleEvent(1, trace.Wr(0, 0))
	// Corrupt: pretend variable 0 was written at a clock far beyond
	// thread 0's current time.
	d.stripes[0].tab.w[0] = d.threads[0].c.Epoch(0) + 1000
	if err := d.CheckWellFormed(); err == nil {
		t.Error("corrupted write epoch not detected")
	}

	d2 := New(2, 2)
	d2.HandleEvent(0, trace.ForkOf(0, 1))
	// Corrupt condition 1: thread 1 claims to have seen thread 0's
	// future.
	d2.threads[1].c = d2.threads[1].c.Set(0, 99)
	if err := d2.CheckWellFormed(); err == nil {
		t.Error("corrupted cross-thread clock not detected")
	}

	d3 := New(2, 2)
	d3.HandleEvent(0, trace.Acq(0, 5))
	d3.HandleEvent(1, trace.Rel(0, 5))
	p := d3.locks.ref(5)
	*p = (*p).Set(0, 99)
	if err := d3.CheckWellFormed(); err == nil {
		t.Error("corrupted lock clock not detected")
	}
}
