package trace

import (
	"strings"
	"testing"
)

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("KindFromString(%q) = %v,%v; want %v", k.String(), got, ok, k)
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Error("KindFromString must reject unknown mnemonics")
	}
}

func TestKindClassification(t *testing.T) {
	if !Read.IsAccess() || !Write.IsAccess() {
		t.Error("rd/wr must be accesses")
	}
	if Acquire.IsAccess() || VolatileRead.IsAccess() {
		t.Error("acq and volatile reads are not plain accesses")
	}
	for _, k := range []Kind{Acquire, Release, Fork, Join, VolatileRead, VolatileWrite, Wait, BarrierRelease, ChanSend, ChanRecv, ChanClose} {
		if !k.IsSync() {
			t.Errorf("%v must be sync", k)
		}
	}
	for _, k := range []Kind{Read, Write, Notify, TxBegin, TxEnd} {
		if k.IsSync() {
			t.Errorf("%v must not be sync", k)
		}
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Rd(1, 3), "rd 1 x3"},
		{Wr(0, 7), "wr 0 x7"},
		{Acq(2, 0), "acq 2 m0"},
		{Rel(2, 0), "rel 2 m0"},
		{ForkOf(0, 1), "fork 0 1"},
		{JoinOf(0, 1), "join 0 1"},
		{VRd(1, 2), "vrd 1 v2"},
		{VWr(1, 2), "vwr 1 v2"},
		{Barrier(0, 0, 1, 2), "barrier b0 0 1 2"},
		{Event{Kind: TxBegin, Tid: 4}, "txbegin 4"},
		{Event{Kind: Wait, Tid: 1, Target: 5}, "wait 1 m5"},
		{Event{Kind: Notify, Tid: 1, Target: 5}, "notify 1 m5"},
		{ChSend(1, 4, 2), "chsend 1 c4 2"},
		{ChRecv(0, 4, 2), "chrecv 0 c4 2"},
		{ChClose(1, 4, 0), "chclose 1 c4 0"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// section2Trace is the worked example of Section 2.2 of the paper.
func section2Trace() Trace {
	return Trace{
		ForkOf(0, 1),
		Wr(0, 0),
		Rel(0, 0), // needs a preceding acq to be feasible
	}
}

func TestThreadsVarsCount(t *testing.T) {
	tr := Trace{
		ForkOf(0, 1),
		Wr(0, 10),
		Rd(1, 10),
		Rd(1, 11),
		Acq(1, 0),
		Rel(1, 0),
		Barrier(0, 0, 1),
	}
	if n := tr.Threads(); n != 2 {
		t.Errorf("Threads = %d, want 2", n)
	}
	if vars := tr.Vars(); len(vars) != 2 {
		t.Errorf("Vars = %v, want 2 entries", vars)
	}
	c := tr.Count()
	if c.Reads != 2 || c.Writes != 1 || c.Other != 4 {
		t.Errorf("Count = %+v", c)
	}
	if c.Total() != len(tr) {
		t.Errorf("Total = %d, want %d", c.Total(), len(tr))
	}
	// Fork target raises the thread count even before the child runs.
	if n := (Trace{ForkOf(0, 5)}).Threads(); n != 6 {
		t.Errorf("Threads with fork target 5 = %d, want 6", n)
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	tr := Trace{
		Wr(0, 1),
		ForkOf(0, 1),
		Acq(1, 0),
		Wr(1, 1),
		Rel(1, 0),
		Acq(0, 0),
		Rd(0, 1),
		Rel(0, 0),
		JoinOf(0, 1),
		Rd(0, 1),
		Barrier(0, 0),
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		tr   Trace
		want string
	}{
		{"double acquire", Trace{Acq(0, 1), Acq(0, 1)}, "already held"},
		{"acquire held by other", Trace{ForkOf(0, 1), Acq(0, 1), Acq(1, 1)}, "already held"},
		{"release unheld", Trace{Rel(0, 1)}, "does not hold"},
		{"release other's lock", Trace{ForkOf(0, 1), Acq(1, 1), Rel(0, 1)}, "does not hold"},
		{"run before fork", Trace{Rd(1, 0)}, "not running"},
		{"negative thread", Trace{Rd(-1, 0)}, "not running"},
		{"run after join", Trace{ForkOf(0, 1), Rd(1, 0), JoinOf(0, 1), Rd(1, 0)}, "not running"},
		{"fork existing", Trace{ForkOf(0, 1), Rd(1, 0), ForkOf(0, 1)}, "already exists"},
		{"fork self", Trace{ForkOf(0, 0)}, "forks itself"},
		{"join unborn", Trace{JoinOf(0, 3)}, "not running"},
		{"join self", Trace{JoinOf(0, 0)}, "joins itself"},
		{"join idle thread", Trace{ForkOf(0, 1), JoinOf(0, 1)}, "no instruction"},
		{"wait without lock", Trace{Event{Kind: Wait, Tid: 0, Target: 2}}, "does not hold"},
		{"barrier dead thread", Trace{Barrier(0, 0, 2)}, "not running"},
	}
	for _, c := range cases {
		err := c.tr.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an infeasible trace", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestValidationErrorFields(t *testing.T) {
	tr := Trace{Rd(0, 1), Rel(0, 9)}
	err := tr.Validate()
	verr, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("error type %T, want *ValidationError", err)
	}
	if verr.Index != 1 || verr.Event.Kind != Release {
		t.Errorf("ValidationError = %+v", verr)
	}
}

func TestTraceString(t *testing.T) {
	tr := Trace{Rd(0, 1), Wr(1, 2)}
	want := "rd 0 x1\nwr 1 x2\n"
	if got := tr.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
