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
	if st.MemCoarse == 0 {
		t.Fatal("budget pressure never engaged the coarse fallback")
	}
	if d.coarseFrom == 0 {
		t.Fatal("coarseFrom not set under an impossible budget")
	}
}

func TestMemoryBudgetBoundsNewGrowth(t *testing.T) {
	d := New(0, 0)
	d.SetMemoryBudget(64 << 10)
	i := feedBudget(d, 4000)
	// Past the fold point, consecutive fresh locations share folded
	// shadow slots, so the var table grows FieldsPerObject times slower.
	d.HandleEvent(i, trace.Wr(0, 100000))
	i++
	before := len(d.stripes[0].tab.r)
	for x := 1; x < 8000; x++ {
		d.HandleEvent(i, trace.Wr(0, uint64(100000+x)))
		i++
	}
	st := d.Stats()
	if st.MemCoarse == 0 {
		t.Fatalf("coarse fallback never fired (footprint %d, %d vars)", d.footprint(), len(d.stripes[0].tab.r))
	}
	grew := len(d.stripes[0].tab.r) - before
	if grew > 8000/rr.FieldsPerObject+1 {
		t.Fatalf("var table grew by %d for 8000 fresh locations; coarse fallback not bounding growth", grew)
	}
}

func TestMemoryBudgetKeepsDetecting(t *testing.T) {
	d := New(0, 0)
	d.SetMemoryBudget(1)
	i := feedBudget(d, 2000)
	// A planted unsynchronized write-write race after heavy degradation.
	target := uint64(500000)
	d.HandleEvent(i, trace.Wr(1, target))
	d.HandleEvent(i+1, trace.Wr(2, target))
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

func TestMemoryBudgetOffByDefault(t *testing.T) {
	d := New(0, 0)
	feedBudget(d, 500)
	st := d.Stats()
	if st.MemSqueezes != 0 || st.MemCoarse != 0 {
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
