package core

import (
	"strings"
	"testing"

	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// provTrace is a directed write-write race with a sync prologue: thread
// 0 writes x under lock m, thread 1 then writes x without acquiring m.
func provTrace() trace.Trace {
	return trace.Trace{
		trace.ForkOf(0, 1), // 0
		trace.Acq(0, 5),    // 1
		trace.Wr(0, 3),     // 2
		trace.Rel(0, 5),    // 3
		trace.Wr(1, 3),     // 4: races with event 2
	}
}

// TestProvenanceDetailedReport checks every enrichment field on the
// directed race, serial layout.
func TestProvenanceDetailedReport(t *testing.T) {
	d := New(2, 4)
	d.EnableProvenance()
	for i, e := range provTrace() {
		d.HandleEvent(i, e)
	}
	races := wantRaces(t, d, 1)
	dets := d.DetailedRaces()
	if len(dets) != 1 {
		t.Fatalf("DetailedRaces returned %d reports, want 1", len(dets))
	}
	det := dets[0]
	if det.Report != races[0] {
		t.Errorf("embedded Report %+v != Races()[0] %+v", det.Report, races[0])
	}
	if det.Kind != rr.WriteWrite || det.Tid != 1 || det.PrevTid != 0 {
		t.Errorf("race attribution wrong: %+v", det.Report)
	}
	if det.Index != 4 || det.PrevIndex != 2 {
		t.Errorf("event indices = (%d, %d), want (4, 2)", det.Index, det.PrevIndex)
	}
	if len(det.AccessClock) == 0 {
		t.Error("AccessClock empty")
	}
	if len(det.PrevClock) == 0 {
		t.Error("PrevClock empty: the recorder saw the prior write")
	}
	// Thread 0's write happened at epoch 2@0 (fork incremented its clock).
	if det.PrevEpoch != "2@0" {
		t.Errorf("PrevEpoch = %q, want \"2@0\"", det.PrevEpoch)
	}
	if !strings.Contains(det.FailedCheck, "W_x3 = 2@0") {
		t.Errorf("FailedCheck = %q, want the write epoch comparison", det.FailedCheck)
	}
	// The sync chain must contain thread 0's release of m (the edge that
	// would have ordered the accesses had thread 1 acquired m).
	var sawRel bool
	for _, s := range det.SyncChain {
		if s.Tid == 0 && s.Op == "rel" && s.Target == 5 {
			sawRel = true
			if s.Index != 3 {
				t.Errorf("release record index = %d, want 3", s.Index)
			}
		}
	}
	if !sawRel {
		t.Errorf("SyncChain %+v missing thread 0's release of m5", det.SyncChain)
	}
	if det.Explanation == "" || !strings.Contains(det.Explanation, "failed happens-before check") {
		t.Errorf("Explanation = %q", det.Explanation)
	}
}

// TestProvenanceShardedMatchesSerial replays the directed race through
// the sharded layout and requires the identical detail.
func TestProvenanceShardedMatchesSerial(t *testing.T) {
	serial := New(2, 4)
	serial.EnableProvenance()
	sharded := New(2, 4)
	sharded.EnableProvenance()
	sharded.EnableSharding(4)
	for i, e := range provTrace() {
		serial.HandleEvent(i, e)
		sharded.HandleEvent(i, e)
	}
	sd := serial.DetailedRaces()
	hd := sharded.DetailedRaces()
	if len(sd) != 1 || len(hd) != 1 {
		t.Fatalf("detail counts: serial %d, sharded %d", len(sd), len(hd))
	}
	if sd[0].Explanation != hd[0].Explanation {
		t.Errorf("explanations diverge\n serial:  %s\n sharded: %s",
			sd[0].Explanation, hd[0].Explanation)
	}
}

// TestProvenanceReadWriteShared exercises the read-shared enrichment
// branch: two concurrent readers promote R_x to a vector clock, then an
// unordered write races against one of them.
func TestProvenanceReadWriteShared(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOf(0, 1), // 0
		trace.ForkOf(0, 2), // 1
		trace.Rd(1, 9),     // 2
		trace.Rd(2, 9),     // 3: promotes to read-shared
		trace.Wr(0, 9),     // 4: races with both reads
	}
	d := New(3, 16)
	d.EnableProvenance()
	for i, e := range tr {
		d.HandleEvent(i, e)
	}
	races := wantRaces(t, d, 1)
	if races[0].Kind != rr.ReadWrite {
		t.Fatalf("kind = %v, want read-write", races[0].Kind)
	}
	det := d.DetailedRaces()[0]
	if !strings.Contains(det.FailedCheck, "R_x9[") {
		t.Errorf("FailedCheck = %q, want the read-shared component comparison", det.FailedCheck)
	}
	if det.PrevEpoch == "" {
		t.Error("PrevEpoch empty for read-shared race")
	}
}

// TestProvenanceDisabledIsPlain: with the recorder off, DetailedRaces
// still mirrors Races() but carries no evidence.
func TestProvenanceDisabledIsPlain(t *testing.T) {
	d := run(t, provTrace())
	races := wantRaces(t, d, 1)
	dets := d.DetailedRaces()
	if len(dets) != 1 || dets[0].Report != races[0] {
		t.Fatalf("DetailedRaces = %+v, want plain mirror of %+v", dets, races)
	}
	if dets[0].Explanation != "" || dets[0].FailedCheck != "" || len(dets[0].AccessClock) != 0 {
		t.Errorf("disabled recorder produced evidence: %+v", dets[0])
	}
}

// TestProvenanceRingBounded: a thread performing far more sync
// operations than the ring holds quotes only the most recent ones.
func TestProvenanceRingBounded(t *testing.T) {
	d := New(2, 4)
	d.EnableProvenance()
	i := 0
	handle := func(e trace.Event) {
		d.HandleEvent(i, e)
		i++
	}
	handle(trace.ForkOf(0, 1))
	handle(trace.Acq(0, 5))
	handle(trace.Wr(0, 3))
	handle(trace.Rel(0, 5))
	for k := 0; k < 10*provRingSize; k++ {
		handle(trace.Acq(1, 7))
		handle(trace.Rel(1, 7))
	}
	handle(trace.Wr(1, 3))
	det := d.DetailedRaces()
	if len(det) != 1 {
		t.Fatalf("races = %d, want 1", len(det))
	}
	if len(det[0].SyncChain) > 2*provChainLen {
		t.Errorf("SyncChain has %d entries, want <= %d", len(det[0].SyncChain), 2*provChainLen)
	}
	// The quoted chain must be the most recent operations, in index order.
	last := -1
	for _, s := range det[0].SyncChain {
		if s.Index < last {
			t.Errorf("SyncChain out of order: %+v", det[0].SyncChain)
		}
		last = s.Index
	}
	if last < i-3 {
		t.Errorf("newest quoted sync is event %d; ring should quote recent history (last sync at %d)", last, i-2)
	}
}
