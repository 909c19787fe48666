package core

import (
	"testing"

	"fasttrack/internal/rr"
	"fasttrack/internal/vc"
	"fasttrack/trace"
)

// run feeds a trace to a fresh detector and returns it.
func run(t *testing.T, tr trace.Trace) *Detector {
	t.Helper()
	d := New(4, 16)
	for i, e := range tr {
		d.HandleEvent(i, e)
	}
	return d
}

// advance performs n dummy release operations by thread t so that its
// clock becomes 1+n, letting white-box tests reproduce the exact clock
// values of the paper's worked examples.
func advance(d *Detector, t int32, n int) {
	for i := 0; i < n; i++ {
		d.HandleEvent(-1, trace.Acq(t, 999))
		d.HandleEvent(-1, trace.Rel(t, 999))
	}
}

func wantRaces(t *testing.T, d *Detector, want int) []rr.Report {
	t.Helper()
	got := d.Races()
	if len(got) != want {
		t.Fatalf("%d races reported, want %d: %v", len(got), want, got)
	}
	return got
}

// TestPaperSection2Trace replays the worked example of Section 2.2/3:
// the release-acquire edge on lock m orders thread 0's write before
// thread 1's write, so no race is reported and the write epoch advances
// from 4@0 to 8@1.
func TestPaperSection2Trace(t *testing.T) {
	d := New(2, 2)
	advance(d, 0, 3) // C0 = <4>
	advance(d, 1, 7) // C1 = <0,8>

	if got := d.ClockOf(0).Get(0); got != 4 {
		t.Fatalf("C0(0) = %d, want 4", got)
	}
	if got := d.ClockOf(1).Get(1); got != 8 {
		t.Fatalf("C1(1) = %d, want 8", got)
	}

	const x, m = 0, 1
	d.HandleEvent(0, trace.Wr(0, x))
	if w := d.WriteEpochOf(x); w != vc.MakeEpoch(0, 4) {
		t.Errorf("after wr(0,x): W_x = %v, want 4@0", w)
	}
	d.HandleEvent(1, trace.Acq(0, m))
	d.HandleEvent(2, trace.Rel(0, m))
	if got := d.ClockOf(0).Get(0); got != 5 {
		t.Errorf("after rel: C0(0) = %d, want 5", got)
	}
	d.HandleEvent(3, trace.Acq(1, m))
	c1 := d.ClockOf(1)
	if c1.Get(0) != 4 || c1.Get(1) != 8 {
		t.Errorf("after acq: C1 = %v, want <4,8>", c1)
	}
	d.HandleEvent(4, trace.Wr(1, x))
	wantRaces(t, d, 0)
	if w := d.WriteEpochOf(x); w != vc.MakeEpoch(1, 8) {
		t.Errorf("after wr(1,x): W_x = %v, want 8@1", w)
	}
}

// TestFigure4Trace replays Figure 4 step by step, checking that the read
// history adapts epoch -> vector clock -> epoch exactly as shown.
func TestFigure4Trace(t *testing.T) {
	d := New(2, 1)
	advance(d, 0, 6) // C0 = <7,0>
	const x = 0

	checkRead := func(step string, wantEpoch vc.Epoch, wantVC vc.VC) {
		t.Helper()
		e, v, shared := d.ReadStateOf(x)
		if wantVC != nil {
			if !shared || !v.Equal(wantVC) {
				t.Errorf("%s: R_x = (%v,%v,shared=%v), want VC %v", step, e, v, shared, wantVC)
			}
			return
		}
		if shared || e != wantEpoch {
			t.Errorf("%s: R_x = (%v,shared=%v), want epoch %v", step, e, shared, wantEpoch)
		}
	}

	d.HandleEvent(0, trace.Wr(0, x))
	if w := d.WriteEpochOf(x); w != vc.MakeEpoch(0, 7) {
		t.Fatalf("W_x = %v, want 7@0", w)
	}
	d.HandleEvent(1, trace.ForkOf(0, 1))
	if c0 := d.ClockOf(0); c0.Get(0) != 8 {
		t.Errorf("after fork: C0 = %v, want <8,0>", c0)
	}
	if c1 := d.ClockOf(1); c1.Get(0) != 7 || c1.Get(1) != 1 {
		t.Errorf("after fork: C1 = %v, want <7,1>", c1)
	}

	d.HandleEvent(2, trace.Rd(1, x))
	checkRead("after rd(1,x)", vc.MakeEpoch(1, 1), nil)

	d.HandleEvent(3, trace.Rd(0, x))
	checkRead("after rd(0,x)", 0, vc.VC{8, 1})

	d.HandleEvent(4, trace.JoinOf(0, 1))
	if c0 := d.ClockOf(0); c0.Get(0) != 8 || c0.Get(1) != 1 {
		t.Errorf("after join: C0 = %v, want <8,1>", c0)
	}
	if c1 := d.ClockOf(1); c1.Get(1) != 2 {
		t.Errorf("after join: C1 = %v, want <7,2>", c1)
	}

	d.HandleEvent(5, trace.Wr(0, x))
	checkRead("after wr(0,x)", vc.Bottom, nil) // demoted back to ⊥e
	if w := d.WriteEpochOf(x); w != vc.MakeEpoch(0, 8) {
		t.Errorf("W_x = %v, want 8@0", w)
	}

	d.HandleEvent(6, trace.Rd(0, x))
	checkRead("after rd(0,x)", vc.MakeEpoch(0, 8), nil)

	wantRaces(t, d, 0)
	st := d.Stats()
	if st.ReadShare != 1 {
		t.Errorf("ReadShare = %d, want 1", st.ReadShare)
	}
	if st.WriteShared != 1 {
		t.Errorf("WriteShared = %d, want 1", st.WriteShared)
	}
}

func TestWriteWriteRace(t *testing.T) {
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 5),
		trace.Wr(1, 5),
	})
	// fork orders wr(0) before wr(1)? No: fork(0,1) happens before both;
	// wr(0,5) is AFTER the fork by thread 0, so it is concurrent with
	// thread 1's write.
	r := wantRaces(t, d, 1)[0]
	if r.Kind != rr.WriteWrite || r.Var != 5 || r.Tid != 1 || r.PrevTid != 0 {
		t.Errorf("report = %+v", r)
	}
}

func TestWriteReadRace(t *testing.T) {
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 5),
		trace.Rd(1, 5),
	})
	r := wantRaces(t, d, 1)[0]
	if r.Kind != rr.WriteRead || r.Tid != 1 || r.PrevTid != 0 {
		t.Errorf("report = %+v", r)
	}
}

func TestReadWriteRaceEpoch(t *testing.T) {
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Rd(0, 5),
		trace.Wr(1, 5),
	})
	r := wantRaces(t, d, 1)[0]
	if r.Kind != rr.ReadWrite || r.Tid != 1 || r.PrevTid != 0 {
		t.Errorf("report = %+v", r)
	}
}

func TestReadWriteRaceShared(t *testing.T) {
	// Two ordered-by-nothing readers inflate R_x to a VC; a later write by
	// a third thread that joined only one reader races with the other.
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.ForkOf(0, 2),
		trace.Rd(1, 5),
		trace.Rd(2, 5),
		trace.JoinOf(0, 1),
		trace.Wr(0, 5), // thread 2's read not joined: read-write race
	})
	r := wantRaces(t, d, 1)[0]
	if r.Kind != rr.ReadWrite || r.Tid != 0 || r.PrevTid != 2 {
		t.Errorf("report = %+v", r)
	}
}

func TestNoFalseAlarmLockProtected(t *testing.T) {
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Acq(0, 9),
		trace.Wr(0, 5),
		trace.Rel(0, 9),
		trace.Acq(1, 9),
		trace.Rd(1, 5),
		trace.Wr(1, 5),
		trace.Rel(1, 9),
	})
	wantRaces(t, d, 0)
}

func TestNoFalseAlarmForkJoin(t *testing.T) {
	d := run(t, trace.Trace{
		trace.Wr(0, 5),
		trace.ForkOf(0, 1),
		trace.Rd(1, 5), // ordered by fork
		trace.Wr(1, 5),
		trace.JoinOf(0, 1),
		trace.Rd(0, 5), // ordered by join
		trace.Wr(0, 5),
	})
	wantRaces(t, d, 0)
}

func TestNoFalseAlarmThreadLocal(t *testing.T) {
	var tr trace.Trace
	tr = append(tr, trace.ForkOf(0, 1))
	for i := 0; i < 50; i++ {
		tr = append(tr, trace.Wr(0, 1), trace.Rd(0, 1), trace.Wr(1, 2), trace.Rd(1, 2))
	}
	d := run(t, tr)
	wantRaces(t, d, 0)
	st := d.Stats()
	// After the first write+read per variable, every access is same-epoch:
	// nothing in the loop changes the threads' clocks.
	if st.ReadSameEpoch != 2*50-2 {
		t.Errorf("ReadSameEpoch = %d, want %d", st.ReadSameEpoch, 2*50-2)
	}
	if st.WriteSameEpoch != 2*50-2 {
		t.Errorf("WriteSameEpoch = %d, want %d", st.WriteSameEpoch, 2*50-2)
	}
}

func TestVolatileOrdering(t *testing.T) {
	// A data handoff through a volatile flag is race-free.
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 5),
		trace.VWr(0, 0), // publish
		trace.VRd(1, 0), // observe
		trace.Rd(1, 5),
	})
	wantRaces(t, d, 0)

	// Without the volatile read there is a race.
	d = run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 5),
		trace.VWr(0, 0),
		trace.Rd(1, 5),
	})
	wantRaces(t, d, 1)
}

func TestVolatileWriteToWriteOrdering(t *testing.T) {
	// FT WRITE VOLATILE joins L_vx into the new L_vx, so a reader sees
	// the union of all preceding volatile writers.
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.ForkOf(0, 2),
		trace.Wr(1, 5),
		trace.VWr(1, 0),
		trace.Wr(2, 6),
		trace.VWr(2, 0),
		trace.VRd(0, 0),
		trace.Rd(0, 5),
		trace.Rd(0, 6),
	})
	wantRaces(t, d, 0)
}

func TestBarrierOrdering(t *testing.T) {
	// Pre-barrier writes are ordered before post-barrier reads by other
	// threads; post-barrier accesses of different threads are unordered.
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 5),
		trace.Wr(1, 6),
		trace.Barrier(0, 0, 1),
		trace.Rd(1, 5),
		trace.Rd(0, 6),
	})
	wantRaces(t, d, 0)

	d = run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Barrier(0, 0, 1),
		trace.Wr(0, 5),
		trace.Wr(1, 5), // post-barrier, unordered: race
	})
	wantRaces(t, d, 1)
}

func TestBarrierEmptySet(t *testing.T) {
	d := New(1, 1)
	d.HandleEvent(0, trace.Event{Kind: trace.BarrierRelease})
	wantRaces(t, d, 0)
}

func TestOneReportPerVariable(t *testing.T) {
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 5),
		trace.Wr(1, 5),
		trace.Wr(0, 5),
		trace.Rd(1, 5),
		trace.Wr(1, 7),
		trace.Wr(0, 7),
	})
	rs := wantRaces(t, d, 2)
	if rs[0].Var != 5 || rs[1].Var != 7 {
		t.Errorf("reports = %v", rs)
	}
}

func TestRaceReportIndex(t *testing.T) {
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 5),
		trace.Wr(1, 5),
	})
	if r := wantRaces(t, d, 1)[0]; r.Index != 2 {
		t.Errorf("Index = %d, want 2", r.Index)
	}
}

func TestSameEpochCountersExactness(t *testing.T) {
	d := run(t, trace.Trace{
		trace.Wr(0, 1), // write exclusive
		trace.Wr(0, 1), // write same epoch
		trace.Rd(0, 1), // read exclusive
		trace.Rd(0, 1), // read same epoch
	})
	st := d.Stats()
	if st.WriteExclusive != 1 || st.WriteSameEpoch != 1 || st.ReadExclusive != 1 || st.ReadSameEpoch != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Reads != 2 || st.Writes != 2 || st.Events != 4 {
		t.Errorf("event counts = %+v", st)
	}
}

func TestReadSharedFastPathIsO1(t *testing.T) {
	// Once read-shared, further reads must not allocate vector clocks.
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Rd(0, 1),
		trace.Rd(1, 1), // inflates: 1 VC allocated
	})
	alloc := d.Stats().VCAlloc
	for i := 0; i < 10; i++ {
		d.HandleEvent(100+i, trace.Rd(0, 1))
		d.HandleEvent(200+i, trace.Rd(1, 1))
	}
	if got := d.Stats().VCAlloc; got != alloc {
		t.Errorf("VCAlloc grew from %d to %d on read-shared fast path", alloc, got)
	}
	if d.Stats().ReadShared == 0 {
		t.Error("ReadShared counter did not advance")
	}
}

func TestReadShareReusesDemotedVC(t *testing.T) {
	// After WRITE SHARED demotes the history, a second inflation reuses
	// the retained vector clock rather than allocating a new one, and the
	// stale components must have been cleared.
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.ForkOf(0, 2),
		trace.Rd(1, 1),
		trace.Rd(2, 1), // inflate #1
		trace.JoinOf(0, 1),
		trace.JoinOf(0, 2),
		trace.Wr(0, 1), // demote
	})
	alloc := d.Stats().VCAlloc
	d.HandleEvent(10, trace.ForkOf(0, 3))
	d.HandleEvent(11, trace.ForkOf(0, 4))
	d.HandleEvent(12, trace.Rd(3, 1))
	d.HandleEvent(13, trace.Rd(4, 1)) // inflate #2: reuse
	// VCAlloc counts logical materializations (two thread clocks plus
	// the re-inflation); the physical reuse shows up as the store
	// serving the inflation from its free list instead of a new slot.
	if got := d.Stats().VCAlloc - alloc; got != 3 {
		t.Errorf("VCAlloc grew by %d, want 3 (two thread clocks + one logical inflation)", got)
	}
	if got := len(d.stripes[0].shared.regions); got != 1 {
		t.Errorf("read-VC store grew to %d slots, want the demoted slot recycled", got)
	}
	_, rvc, shared := d.ReadStateOf(1)
	if !shared {
		t.Fatal("variable should be read-shared")
	}
	if rvc.Get(1) != 0 || rvc.Get(2) != 0 {
		t.Errorf("stale read components not cleared: %v", rvc)
	}
	wantRaces(t, d, 0)
}

func TestRaceDoesNotPoisonOtherVariables(t *testing.T) {
	d := run(t, trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 5),
		trace.Wr(1, 5), // race on 5
		trace.Acq(0, 9),
		trace.Wr(0, 6),
		trace.Rel(0, 9),
		trace.Acq(1, 9),
		trace.Rd(1, 6), // race-free on 6
		trace.Rel(1, 9),
	})
	rs := wantRaces(t, d, 1)
	if rs[0].Var != 5 {
		t.Errorf("reports = %v", rs)
	}
}

func TestPrefilterPassesOnlyRacyAccesses(t *testing.T) {
	d := New(2, 2)
	if !d.HandleFilter(0, trace.ForkOf(0, 1)) {
		t.Error("sync events must pass")
	}
	if d.HandleFilter(1, trace.Wr(0, 1)) {
		t.Error("race-free write must be filtered")
	}
	if d.HandleFilter(2, trace.Rd(0, 1)) {
		t.Error("race-free read must be filtered")
	}
	if !d.HandleFilter(3, trace.Wr(1, 1)) {
		t.Error("racing write must pass")
	}
	// Once a variable is flagged, all its later accesses pass.
	if !d.HandleFilter(4, trace.Rd(1, 1)) {
		t.Error("access to a flagged variable must pass")
	}
	// Other, race-free variables stay filtered.
	if d.HandleFilter(5, trace.Wr(1, 0)) {
		t.Error("race-free variable must stay filtered")
	}
	if !d.HandleFilter(6, trace.Acq(0, 3)) {
		t.Error("sync events must pass")
	}
}

func TestStatsShadowBytesGrowWithState(t *testing.T) {
	d := New(2, 4)
	before := d.Stats().ShadowBytes
	for i := 0; i < 100; i++ {
		d.HandleEvent(i, trace.Wr(0, uint64(i)))
	}
	after := d.Stats().ShadowBytes
	if after <= before {
		t.Errorf("ShadowBytes %d -> %d, want growth", before, after)
	}
}

func TestDetectorName(t *testing.T) {
	if New(0, 0).Name() != "FastTrack" {
		t.Error("bad name")
	}
}

func TestExtendedSameEpochRule(t *testing.T) {
	// Repeated same-epoch reads of read-shared data: the base algorithm
	// counts them under [FT READ SHARED]; the extended rule counts them
	// as same-epoch hits (the paper: 63.4% -> 78% of reads).
	tr := trace.Trace{
		trace.ForkOf(0, 1),
		trace.Rd(0, 1),
		trace.Rd(1, 1), // inflates to read-shared
	}
	repeats := 10
	for i := 0; i < repeats; i++ {
		tr = append(tr, trace.Rd(0, 1), trace.Rd(1, 1))
	}

	base := run(t, tr)
	ext := New(4, 4)
	ext.EnableExtendedSameEpoch()
	for i, e := range tr {
		ext.HandleEvent(i, e)
	}

	bs, es := base.Stats(), ext.Stats()
	if bs.ReadSameEpoch != 0 {
		t.Errorf("base ReadSameEpoch = %d, want 0 (all shared-mode)", bs.ReadSameEpoch)
	}
	if es.ReadSameEpoch != int64(2*repeats) {
		t.Errorf("extended ReadSameEpoch = %d, want %d", es.ReadSameEpoch, 2*repeats)
	}
	// Identical warnings either way.
	if len(base.Races()) != 0 || len(ext.Races()) != 0 {
		t.Errorf("read-shared data produced warnings: %v / %v", base.Races(), ext.Races())
	}
}

func TestExtendedSameEpochPrecisionUnchanged(t *testing.T) {
	// The extended rule must not change any verdict: replay assorted racy
	// and race-free traces under both configurations.
	traces := []trace.Trace{
		{trace.ForkOf(0, 1), trace.Rd(0, 1), trace.Rd(1, 1), trace.Wr(0, 1)},     // race (shared read vs write)
		{trace.ForkOf(0, 1), trace.Rd(0, 1), trace.Rd(1, 1), trace.Rd(0, 1)},     // clean
		{trace.ForkOf(0, 1), trace.Wr(0, 1), trace.Rd(1, 1)},                     // race
		{trace.Wr(0, 1), trace.ForkOf(0, 1), trace.Rd(1, 1), trace.JoinOf(0, 1)}, // clean
	}
	for i, tr := range traces {
		a := run(t, tr)
		b := New(4, 4)
		b.EnableExtendedSameEpoch()
		for j, e := range tr {
			b.HandleEvent(j, e)
		}
		if len(a.Races()) != len(b.Races()) {
			t.Errorf("case %d: base %v, extended %v", i, a.Races(), b.Races())
		}
	}
}

func TestDetailedReportsCarryPrevIndex(t *testing.T) {
	for _, tc := range []struct {
		layout string
		shards int
	}{{"serial", 0}, {"sharded", 4}} {
		t.Run(tc.layout, func(t *testing.T) {
			d := New(4, 4)
			d.EnableSharding(tc.shards)
			d.EnableDetailedReports()
			tr := trace.Trace{
				trace.ForkOf(0, 1), // 0
				trace.Wr(0, 5),     // 1
				trace.Wr(1, 5),     // 2: write-write race, prev = 1
				trace.Rd(0, 6),     // 3
				trace.Wr(1, 6),     // 4: read-write race, prev = 3
				trace.Wr(0, 7),     // 5
				trace.Rd(1, 7),     // 6: write-read race, prev = 5
			}
			for i, e := range tr {
				d.HandleEvent(i, e)
			}
			races := d.Races()
			if len(races) != 3 {
				t.Fatalf("races = %v", races)
			}
			want := map[uint64]int{5: 1, 6: 3, 7: 5}
			for _, r := range races {
				if r.PrevIndex != want[r.Var] {
					t.Errorf("x%d: PrevIndex = %d, want %d (%v)", r.Var, r.PrevIndex, want[r.Var], r)
				}
				if r.Index <= r.PrevIndex {
					t.Errorf("x%d: Index %d not after PrevIndex %d", r.Var, r.Index, r.PrevIndex)
				}
			}
		})
	}
}

func TestDetailedReportsOffByDefault(t *testing.T) {
	d := run(t, trace.Trace{trace.ForkOf(0, 1), trace.Wr(0, 5), trace.Wr(1, 5)})
	if r := wantRaces(t, d, 1)[0]; r.PrevIndex != -1 {
		t.Errorf("PrevIndex = %d, want -1 when detail is off", r.PrevIndex)
	}
}

func TestEnableDetailedReportsMidRun(t *testing.T) {
	d := New(2, 2)
	d.HandleEvent(0, trace.ForkOf(0, 1))
	d.HandleEvent(1, trace.Wr(0, 5)) // before enabling: no history
	d.EnableDetailedReports()
	d.HandleEvent(2, trace.Wr(1, 5)) // race; prev write unrecorded
	r := wantRaces(t, d, 1)[0]
	if r.PrevIndex != -1 {
		t.Errorf("PrevIndex = %d, want -1 for pre-enable history", r.PrevIndex)
	}
	// Post-enable history is tracked.
	d.HandleEvent(3, trace.Wr(0, 6))
	d.HandleEvent(4, trace.Wr(1, 6))
	races := d.Races()
	if len(races) != 2 || races[1].PrevIndex != 3 {
		t.Errorf("races = %v, want second with PrevIndex 3", races)
	}
}

func TestTxEventsIgnored(t *testing.T) {
	d := run(t, trace.Trace{
		{Kind: trace.TxBegin, Tid: 0},
		trace.Wr(0, 1),
		{Kind: trace.TxEnd, Tid: 0},
	})
	wantRaces(t, d, 0)
	if d.Stats().Events != 3 {
		t.Errorf("Events = %d, want 3", d.Stats().Events)
	}
}
