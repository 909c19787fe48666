package core

import (
	"testing"

	"fasttrack/internal/vc"
	"fasttrack/trace"
)

// These tests pin the zero-allocation contract of the access paths
// (DESIGN.md §13): once a variable's shadow slot and the acting thread
// exist, the same-epoch and exclusive paths — >99% of accesses in the
// paper's workloads — must not touch the Go allocator, in either
// storage layout. testing.AllocsPerRun is exact for serial code, so any
// regression (a map rehash on the hot path, an escaped closure, a
// forgotten pool) fails loudly.

// allocDetectors builds a serial and a sharded detector with thread 0
// and variable 5 pre-materialized, so the measured loops exercise
// steady-state paths rather than first-touch growth.
func allocDetectors() map[string]*Detector {
	ds := map[string]*Detector{"serial": New(0, 0), "sharded": New(0, 0)}
	ds["sharded"].EnableSharding(4)
	for _, d := range ds {
		d.HandleEvent(0, trace.Wr(0, 5))
		d.HandleEvent(1, trace.Rd(0, 5))
		d.HandleEvent(2, trace.Acq(0, 9))
		d.HandleEvent(3, trace.Rel(0, 9))
	}
	return ds
}

func assertZeroAllocs(t *testing.T, layout, path string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(200, f); n != 0 {
		t.Errorf("%s %s path: %.1f allocs per event, want 0", layout, path, n)
	}
}

func TestSameEpochPathsAllocateNothing(t *testing.T) {
	for layout, d := range allocDetectors() {
		i := 100
		assertZeroAllocs(t, layout, "read same-epoch", func() {
			d.HandleEvent(i, trace.Rd(0, 5))
			i++
		})
		assertZeroAllocs(t, layout, "write same-epoch", func() {
			d.HandleEvent(i, trace.Wr(0, 5))
			i++
		})
	}
}

func TestExclusivePathsAllocateNothing(t *testing.T) {
	// A release between accesses advances the thread's epoch, so every
	// access misses the same-epoch compare and takes the exclusive rule —
	// still required to be allocation-free (epoch store plus, on the
	// release, a pooled/materialized lock-clock copy).
	for layout, d := range allocDetectors() {
		i := 100
		assertZeroAllocs(t, layout, "read-exclusive", func() {
			d.HandleEvent(i, trace.Rel(0, 9))
			d.HandleEvent(i+1, trace.Rd(0, 5))
			i += 2
		})
		assertZeroAllocs(t, layout, "write-exclusive", func() {
			d.HandleEvent(i, trace.Rel(0, 9))
			d.HandleEvent(i+1, trace.Wr(0, 5))
			i += 2
		})
	}
}

func TestSyncSteadyStateAllocatesNothing(t *testing.T) {
	// Steady-state lock traffic: acquire joins into the thread's clock,
	// release copies into the lock's pooled clock in place.
	for layout, d := range allocDetectors() {
		i := 100
		assertZeroAllocs(t, layout, "acquire/release", func() {
			d.HandleEvent(i, trace.Acq(0, 9))
			d.HandleEvent(i+1, trace.Rel(0, 9))
			i += 2
		})
	}
}

// TestReadShareRecyclesStoreSlots: the promote/demote cycle — inflate to
// a read VC, demote at the next write-shared, inflate again — must reach
// a fixed point in the store instead of growing it, and must stay sound.
func TestReadShareRecyclesStoreSlots(t *testing.T) {
	d := New(0, 0)
	x := uint64(7)
	i := 0
	ev := func(e trace.Event) {
		d.HandleEvent(i, e)
		i++
	}
	// Each cycle: thread 0 writes and publishes via lock 1; thread 1
	// reads after acquiring it; thread 0 then reads concurrently with
	// thread 1's read (it has not absorbed it yet), promoting the
	// history; lock 2 then orders both reads before the next cycle's
	// write, which demotes. Every happens-before edge a check needs
	// exists, so the trace is race-free.
	ev(trace.ForkOf(0, 1))
	cycle := func() {
		ev(trace.Wr(0, x)) // from cycle 2 on: write-shared, demote, recycle
		ev(trace.Rel(0, 1))
		ev(trace.Acq(1, 1))
		ev(trace.Rd(1, x))
		ev(trace.Rd(0, x)) // unordered with thread 1's read: promote
		ev(trace.Rel(1, 2))
		ev(trace.Acq(0, 2)) // thread 0 absorbs thread 1's read
	}
	cycle()
	if len(d.stripes[0].shared.regions) != 1 {
		t.Fatalf("after first promotion: %d store slots, want 1", len(d.stripes[0].shared.regions))
	}
	for n := 0; n < 50; n++ {
		cycle()
	}
	if len(d.stripes[0].shared.regions) != 1 {
		t.Fatalf("after 51 promote/demote cycles: %d store slots, want 1 (slot not recycled)", len(d.stripes[0].shared.regions))
	}
	if err := d.CheckWellFormed(); err != nil {
		t.Fatalf("well-formedness after recycling: %v", err)
	}
	if got := len(d.Races()); got != 0 {
		t.Fatalf("%d races on a synchronized trace", got)
	}
	if d.stripes[0].st.ReadShare != 51 || d.stripes[0].st.WriteShared != 50 {
		t.Fatalf("rule counts: ReadShare %d, WriteShared %d, want 51 and 50",
			d.stripes[0].st.ReadShare, d.stripes[0].st.WriteShared)
	}
}

// TestRecyclingSoundAcrossCompact: a compaction pass between cycles
// discards store slots; later promotions must re-allocate cleanly and
// the analysis must stay well-formed and race-equivalent.
func TestRecyclingSoundAcrossCompact(t *testing.T) {
	d := New(0, 0)
	i := 0
	ev := func(e trace.Event) {
		d.HandleEvent(i, e)
		i++
	}
	ev(trace.ForkOf(0, 1))
	ev(trace.Rd(0, 3))
	ev(trace.Rd(1, 3)) // promote x3
	ev(trace.JoinOf(0, 1))
	d.Compact([]int32{1})
	if err := d.CheckWellFormed(); err != nil {
		t.Fatalf("well-formedness after Compact: %v", err)
	}
	// The dead reader's component is reclaimed; the next promotion must
	// take a fresh (or recycled) store slot without resurrecting stale
	// clock values for the dropped thread.
	ev(trace.ForkOf(0, 2))
	ev(trace.Rd(0, 4))
	ev(trace.Rd(2, 4)) // promote x4
	if _, rvc, shared := d.ReadStateOf(4); !shared {
		t.Fatal("x4 not promoted after Compact")
	} else if rvc.Get(1) != 0 {
		t.Fatalf("recycled slot leaked dead thread's clock: R_x4(1) = %d", rvc.Get(1))
	}
	if err := d.CheckWellFormed(); err != nil {
		t.Fatalf("well-formedness after post-Compact promotion: %v", err)
	}
	if got := len(d.Races()); got != 0 {
		t.Fatalf("%d races on a synchronized trace", got)
	}
}

// TestClockSaturationSurfacesInStats: a thread pinned at the epoch
// format's MaxClock keeps the session alive (no panic — the pre-fix
// behavior) and each further increment is surfaced through the stats
// counter the downgrade machinery watches.
func TestClockSaturationSurfacesInStats(t *testing.T) {
	d := New(0, 0)
	d.HandleEvent(0, trace.Wr(0, 1))
	// White-box: pin thread 0's scalar clock just below the cap, as a
	// session with ~10^12 release operations by one thread would.
	d.threads[0].c = d.threads[0].c.Set(0, vc.MaxClock-1)
	d.threads[0].refreshEpoch(0)
	for k := 1; k <= 3; k++ {
		d.HandleEvent(k, trace.Rel(0, 9)) // inc_t each release
	}
	if got := d.Stats().ClockSaturations; got < 2 {
		t.Fatalf("ClockSaturations = %d after incrementing past the cap, want >= 2", got)
	}
	if c := d.threads[0].c.Get(0); c != vc.MaxClock {
		t.Fatalf("thread clock = %d, want saturation at %d", c, vc.MaxClock)
	}
	// The detector still works: a planted race is still caught.
	d.HandleEvent(10, trace.Wr(1, 1))
	if len(d.Races()) != 1 {
		t.Fatalf("%d races after saturation, want 1", len(d.Races()))
	}
	if err := d.CheckWellFormed(); err != nil {
		t.Fatalf("well-formedness at the clock cap: %v", err)
	}
}
