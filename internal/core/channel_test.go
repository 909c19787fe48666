package core

import (
	"testing"

	"fasttrack/trace"
)

// TestChanUnbufferedOrders checks the rendezvous edge: a write before a
// send on a capacity-0 channel happens before an access after the
// matching receive.
func TestChanUnbufferedOrders(t *testing.T) {
	const x, ch = 0, 1
	d := run(t, trace.Trace{
		trace.Wr(0, x),
		trace.ChSend(0, ch, 0),
		trace.ChRecv(1, ch, 0),
		trace.Wr(1, x),
	})
	wantRaces(t, d, 0)
	if err := d.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

// TestChanUnbufferedReverseEdge checks the receive-side release: on a
// rendezvous channel the receiver's history is ordered before a later
// send completing (send cannot complete until a receiver engages).
func TestChanUnbufferedReverseEdge(t *testing.T) {
	const x, ch = 0, 1
	d := run(t, trace.Trace{
		trace.ChSend(1, ch, 0),
		trace.Wr(0, x),
		trace.ChRecv(0, ch, 0),
		trace.ChSend(1, ch, 0), // joins recvAcc: recv 1 happened before
		trace.Wr(1, x),
	})
	wantRaces(t, d, 0)
}

// TestChanBufferedPublish checks the k-th-send → k-th-recv edge on a
// buffered channel: a write before send k is visible to the thread that
// performs receive k.
func TestChanBufferedPublish(t *testing.T) {
	const x, ch = 0, 1
	d := run(t, trace.Trace{
		trace.Wr(0, x),
		trace.ChSend(0, ch, 4),
		trace.ChRecv(1, ch, 4),
		trace.Wr(1, x),
	})
	wantRaces(t, d, 0)
	if err := d.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

// TestChanBufferedNoReverseEdgeUnderCapacity is the precision half of
// the capacity-aware semantics: on a capacity-2 channel, two sends do
// not wait for any receive, so the receiver's prior write is NOT
// ordered before the sender's later write — that is a race the old
// conservative (lock-like) encoding missed.
func TestChanBufferedNoReverseEdgeUnderCapacity(t *testing.T) {
	const x, ch = 0, 1
	d := run(t, trace.Trace{
		trace.ChSend(0, ch, 2),
		trace.ChRecv(1, ch, 2),
		trace.Wr(1, x),
		trace.ChSend(0, ch, 2), // send 2 ≤ capacity: no edge from recv 1
		trace.Wr(0, x),
	})
	wantRaces(t, d, 1)
}

// TestChanBufferedReverseEdgeAtCapacity checks the (k-C)-th-recv →
// k-th-send edge: send k on a capacity-C channel can only proceed once
// receive k-C freed a slot, so the receiver's history is ordered before
// the sender's subsequent accesses.
func TestChanBufferedReverseEdgeAtCapacity(t *testing.T) {
	const x, ch = 0, 1
	d := run(t, trace.Trace{
		trace.ChSend(0, ch, 1),
		trace.Wr(1, x), // before the receive, so recv 1's clock covers it
		trace.ChRecv(1, ch, 1),
		trace.ChSend(0, ch, 1), // send 2, cap 1: joins recv 1's clock
		trace.Wr(0, x),
	})
	wantRaces(t, d, 0)
	if err := d.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

// TestChanCloseOrdersDrainingRecv checks close → recv-observing-closed:
// a receive that drains past the values sent before close observes the
// closed state, so the closer's prior writes are ordered before it.
func TestChanCloseOrdersDrainingRecv(t *testing.T) {
	const x, ch = 0, 1
	d := run(t, trace.Trace{
		trace.ChSend(0, ch, 4), // one buffered value
		trace.Wr(0, x),
		trace.ChClose(0, ch, 4),
		trace.ChRecv(1, ch, 4), // recv 1 ≤ sendsAtClose: only send 1's clock
		trace.ChRecv(1, ch, 4), // recv 2 > sendsAtClose: observes closed, joins close clock
		trace.Wr(1, x),
	})
	wantRaces(t, d, 0)
}

// TestChanRecvBeforeCloseNotOrdered is the precision complement: a
// receive of a value sent BEFORE the close does not observe the closed
// state, so the closer's writes between that send and the close are not
// ordered before the receiver's accesses.
func TestChanRecvBeforeCloseNotOrdered(t *testing.T) {
	const x, ch = 0, 1
	d := run(t, trace.Trace{
		trace.ChSend(0, ch, 4),
		trace.Wr(0, x),          // after send 1, before close
		trace.ChClose(0, ch, 4), // close clock includes the write
		trace.ChRecv(1, ch, 4),  // recv 1 ≤ sendsAtClose: only send 1's clock
		trace.Wr(1, x),          // races with thread 0's write
	})
	wantRaces(t, d, 1)
}

// TestChanUnbufferedCloseRecv checks close → recv on a rendezvous
// channel (every receive after close observes closed).
func TestChanUnbufferedCloseRecv(t *testing.T) {
	const x, ch = 0, 1
	d := run(t, trace.Trace{
		trace.Wr(0, x),
		trace.ChClose(0, ch, 0),
		trace.ChRecv(1, ch, 0),
		trace.Wr(1, x),
	})
	wantRaces(t, d, 0)
}

// TestChanCapacityMismatchIgnored: the capacity is fixed by the first
// event naming the channel; a disagreeing later value must not
// re-materialize state.
func TestChanCapacityMismatchIgnored(t *testing.T) {
	const ch = 1
	d := run(t, trace.Trace{
		trace.ChSend(0, ch, 3),
		trace.ChRecv(1, ch, 7), // disagrees; treated as the same cap-3 channel
	})
	if cs := d.chans[ch]; cs.capacity != 3 {
		t.Fatalf("capacity = %d, want 3 (fixed by first event)", cs.capacity)
	}
	sends, recvs, closed := d.ChanStateOf(ch)
	if sends != 1 || recvs != 1 || closed {
		t.Fatalf("state = (%d,%d,%v), want (1,1,false)", sends, recvs, closed)
	}
}

// TestChanRingEviction floods a buffered channel with more outstanding
// sends than its ring holds, then checks the degradation contract: the
// publish edge survives via the accumulator (no false positive).
func TestChanRingEviction(t *testing.T) {
	const x, ch = 0, 1
	tr := trace.Trace{trace.Wr(0, x)}
	// Capacity large enough that sends never wait on receives; ring is
	// min(cap+8, 1024) so > 1100 outstanding sends force evictions.
	const capC = 1024
	for i := 0; i < 1200; i++ {
		tr = append(tr, trace.ChSend(0, ch, capC))
	}
	tr = append(tr, trace.ChRecv(1, ch, capC), trace.Wr(1, x))
	d := run(t, tr)
	// Receive 1's exact slot was evicted; the accumulator fallback must
	// still order thread 0's write before thread 1's.
	wantRaces(t, d, 0)
	if err := d.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

// TestChanStatsAccounting checks the Stats plumbing: channel events are
// counted as syncs and in the per-kind channel counter.
func TestChanStatsAccounting(t *testing.T) {
	const ch = 1
	d := run(t, trace.Trace{
		trace.ChSend(0, ch, 0),
		trace.ChRecv(1, ch, 0),
		trace.ChClose(0, ch, 0),
	})
	st := d.Stats()
	if st.Channels != 3 {
		t.Fatalf("Channels = %d, want 3", st.Channels)
	}
	if st.Syncs != st.SyncKindSum() {
		t.Fatalf("Syncs = %d, SyncKindSum = %d", st.Syncs, st.SyncKindSum())
	}
}

// TestChanShardedMatchesSerial replays a mixed channel workload through
// a serial and a sharded detector and requires identical warnings.
func TestChanShardedMatchesSerial(t *testing.T) {
	const ch, ch2 = 100, 101
	tr := trace.Trace{
		trace.Wr(0, 0),
		trace.ChSend(0, ch, 0),
		trace.ChRecv(1, ch, 0),
		trace.Wr(1, 0),
		trace.Wr(1, 1),
		trace.ChSend(1, ch2, 2),
		trace.ChRecv(2, ch2, 2),
		trace.Wr(2, 1),
		trace.Wr(2, 2),
		trace.ChSend(2, ch2, 2), // send 2 ≤ cap: no reverse edge
		trace.Wr(0, 2),          // races with thread 2's write
	}
	serial := run(t, tr)
	sharded := New(4, 16)
	sharded.EnableSharding(4)
	for i, e := range tr {
		sharded.HandleEvent(i, e)
	}
	a, b := serial.Races(), sharded.Races()
	if len(a) != len(b) {
		t.Fatalf("serial %d races, sharded %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Var != b[i].Var {
			t.Errorf("race %d: serial var %d, sharded var %d", i, a[i].Var, b[i].Var)
		}
	}
	wantRaces(t, serial, 1)
}

// TestChanFootprintCounted checks that channel state shows up in the
// detector's footprint estimate.
func TestChanFootprintCounted(t *testing.T) {
	d := New(2, 2)
	base := d.footprint()
	d.HandleEvent(0, trace.ChSend(0, 1, 64))
	if got := d.footprint(); got <= base {
		t.Fatalf("footprint %d after channel event, want > %d", got, base)
	}
}
