package core

import (
	"testing"

	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// feedBudget drives d through a workload that (a) creates many
// read-shared vector clocks and (b) keeps touching fresh locations, so
// both rungs of the degradation ladder have something to do. Returns
// the number of events fed.
func feedBudget(d *Detector, vars int) int {
	i := 0
	feed := func(e trace.Event) {
		d.HandleEvent(i, e)
		i++
	}
	feed(trace.ForkOf(0, 1))
	feed(trace.ForkOf(0, 2))
	for x := 0; x < vars; x++ {
		// Unordered reads by three threads: x becomes read-shared.
		feed(trace.Rd(0, uint64(x)))
		feed(trace.Rd(1, uint64(x)))
		feed(trace.Rd(2, uint64(x)))
	}
	return i
}

func TestMemoryBudgetSqueezesReadShared(t *testing.T) {
	d := New(0, 0)
	d.SetMemoryBudget(1) // impossible budget: every check degrades
	feedBudget(d, 2000)  // 6002 events, several budget checks
	st := d.Stats()
	if st.MemSqueezes == 0 {
		t.Fatal("budget pressure never squeezed a read-shared vector clock")
	}
	if st.SampledOut == 0 || st.DetectionProbability() >= 1 {
		t.Fatalf("budget pressure never stopped shadowing fresh locations (SampledOut %d)", st.SampledOut)
	}
}

func TestMemoryBudgetBoundsNewGrowth(t *testing.T) {
	d := New(0, 0)
	d.SetMemoryBudget(64 << 10)
	i := feedBudget(d, 4000)
	// Past the fold point fresh locations are no longer shadowed, so the
	// var table stops growing.
	d.HandleEvent(i, trace.Wr(0, 100000))
	i++
	before := len(d.stripes[0].tab.r)
	for x := 1; x < 8000; x++ {
		d.HandleEvent(i, trace.Wr(0, uint64(100000+x)))
		i++
	}
	st := d.Stats()
	if st.SampledOut == 0 {
		t.Fatalf("budget never stopped shadowing (footprint %d, %d vars)", d.footprint(), len(d.stripes[0].tab.r))
	}
	grew := len(d.stripes[0].tab.r) - before
	if grew > 8000/rr.FieldsPerObject+1 {
		t.Fatalf("var table grew by %d for 8000 fresh locations; budget not bounding growth", grew)
	}
}

func TestMemoryBudgetKeepsDetecting(t *testing.T) {
	d := New(0, 0)
	d.SetMemoryBudget(1)
	i := feedBudget(d, 2000)
	// A planted unsynchronized write-write race after heavy degradation,
	// on a location shadowed before the fold. The barrier orders the
	// location's earlier concurrent reads, so the planted writes are its
	// first race.
	target := uint64(7)
	if target >= d.foldAt {
		t.Fatalf("fold point %d: location %d not shadowed before the fold", d.foldAt, target)
	}
	d.HandleEvent(i, trace.Barrier(1, 0, 1, 2))
	d.HandleEvent(i+1, trace.Wr(1, target))
	d.HandleEvent(i+2, trace.Wr(2, target))
	found := false
	for _, r := range d.Races() {
		if r.Kind == rr.WriteWrite && r.Tid == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("degraded detector missed a planted write-write race")
	}
}

// TestMemoryBudgetInventsNoRaces: a race-free trace stays race-free
// under a tight budget. Threads 1 and 2 write disjoint fresh locations
// after the budget has stopped growing the shadow table; folding those
// locations into shared per-object slots used to report write-write
// races on ids neither thread touched.
func TestMemoryBudgetInventsNoRaces(t *testing.T) {
	var tr trace.Trace
	tr = append(tr, trace.ForkOf(0, 1), trace.ForkOf(0, 2))
	for x := uint64(0); x < 2048; x++ {
		tr = append(tr, trace.Wr(0, x))
	}
	for i := uint64(0); i < 512; i++ {
		tr = append(tr, trace.Wr(1, 4096+2*i), trace.Wr(2, 4097+2*i))
	}
	d := New(0, 0)
	d.SetMemoryBudget(4096)
	for i, e := range tr {
		d.HandleEvent(i, e)
	}
	if races := d.Races(); len(races) != 0 {
		t.Fatalf("budget invented %d race(s) on a race-free trace, first %v", len(races), races[0])
	}
	st := d.Stats()
	if st.SampledOut == 0 || st.DetectionProbability() >= 1 {
		t.Fatalf("unshadowed accesses not reported: SampledOut %d, detection probability %.3f",
			st.SampledOut, st.DetectionProbability())
	}
}

func TestMemoryBudgetOffByDefault(t *testing.T) {
	d := New(0, 0)
	feedBudget(d, 500)
	st := d.Stats()
	if st.MemSqueezes != 0 || st.SampledOut != 0 {
		t.Fatalf("degradation counters nonzero without a budget: %+v", st)
	}
}

func TestSqueezePreservesWellFormedness(t *testing.T) {
	d := New(0, 0)
	d.SetMemoryBudget(1)
	feedBudget(d, 2000)
	if err := d.CheckWellFormed(); err != nil {
		t.Fatalf("invariants violated after budget squeeze: %v", err)
	}
}
