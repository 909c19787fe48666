package vc

import (
	"testing"
	"testing/quick"
)

func TestEpochPacking(t *testing.T) {
	cases := []struct {
		tid   Tid
		clock Clock
	}{
		{0, 0},
		{0, 1},
		{1, 0},
		{7, 123456},
		{MaxTid, MaxClock},
		{255, (1 << 24) - 1}, // the paper's 32-bit extremes
	}
	for _, c := range cases {
		e := MakeEpoch(c.tid, c.clock)
		if e.Tid() != c.tid {
			t.Errorf("MakeEpoch(%d,%d).Tid() = %d", c.tid, c.clock, e.Tid())
		}
		if e.Clock() != c.clock {
			t.Errorf("MakeEpoch(%d,%d).Clock() = %d", c.tid, c.clock, e.Clock())
		}
	}
}

func TestEpochPackingRoundTrip(t *testing.T) {
	f := func(tid uint16, clock uint32) bool {
		tt, cc := Tid(tid), Clock(clock)
		e := MakeEpoch(tt, cc)
		return e.Tid() == tt && e.Clock() == cc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeEpochPanics(t *testing.T) {
	// Only structurally impossible thread ids panic; an overflowing
	// clock saturates instead (see overflow_test.go).
	for _, c := range []struct {
		tid   Tid
		clock Clock
	}{{-1, 0}, {MaxTid + 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeEpoch(%d,%d): expected panic", c.tid, c.clock)
				}
			}()
			MakeEpoch(c.tid, c.clock)
		}()
	}
}

func TestBottomEpoch(t *testing.T) {
	if Bottom.Tid() != 0 || Bottom.Clock() != 0 {
		t.Fatalf("Bottom = %v, want 0@0", Bottom)
	}
	if !Bottom.LEq(nil) {
		t.Error("Bottom must happen before the minimal vector clock")
	}
	if got := Bottom.String(); got != "0@0" {
		t.Errorf("Bottom.String() = %q", got)
	}
}

func TestEpochLEq(t *testing.T) {
	v := VC{4, 8}
	if !MakeEpoch(0, 4).LEq(v) {
		t.Error("4@0 must happen before <4,8>")
	}
	if MakeEpoch(0, 5).LEq(v) {
		t.Error("5@0 must not happen before <4,8>")
	}
	if !MakeEpoch(1, 8).LEq(v) {
		t.Error("8@1 must happen before <4,8>")
	}
	// Components beyond the vector length are zero.
	if MakeEpoch(5, 1).LEq(v) {
		t.Error("1@5 must not happen before <4,8>")
	}
	if !MakeEpoch(5, 0).LEq(v) {
		t.Error("0@5 must happen before <4,8>")
	}
}

func TestGetSetInc(t *testing.T) {
	var v VC
	if v.Get(3) != 0 {
		t.Error("zero-value VC must read as all-zero")
	}
	v = v.Set(3, 7)
	if v.Get(3) != 7 {
		t.Errorf("Get(3) = %d, want 7", v.Get(3))
	}
	if v.Get(0) != 0 || v.Get(100) != 0 {
		t.Error("unset components must stay zero")
	}
	v = v.Inc(3)
	if v.Get(3) != 8 {
		t.Errorf("Inc: Get(3) = %d, want 8", v.Get(3))
	}
	v = v.Inc(5)
	if v.Get(5) != 1 {
		t.Errorf("Inc on fresh component: got %d, want 1", v.Get(5))
	}
}

func TestJoin(t *testing.T) {
	a := VC{4, 0, 2}
	b := VC{1, 8}
	a = a.Join(b)
	want := VC{4, 8, 2}
	if !a.Equal(want) {
		t.Errorf("join = %v, want %v", a, want)
	}
	// Join against a longer vector grows the receiver.
	c := VC{1}.Join(VC{0, 0, 0, 9})
	if c.Get(3) != 9 || c.Get(0) != 1 {
		t.Errorf("join growth: got %v", c)
	}
}

func TestLEqPartialOrder(t *testing.T) {
	a := VC{4, 0}
	b := VC{4, 8}
	if !a.LEq(b) {
		t.Error("<4,0> ⊑ <4,8> must hold")
	}
	if b.LEq(a) {
		t.Error("<4,8> ⊑ <4,0> must not hold")
	}
	// Incomparable pair.
	c := VC{5, 0}
	d := VC{0, 5}
	if c.LEq(d) || d.LEq(c) {
		t.Error("<5,0> and <0,5> must be incomparable")
	}
	// Trailing zeros are insignificant.
	if !(VC{1, 0, 0}).LEq(VC{1}) {
		t.Error("<1,0,0> ⊑ <1> must hold")
	}
}

func TestFirstExceeding(t *testing.T) {
	if got := (VC{1, 9, 3}).FirstExceeding(VC{1, 2, 3}); got != 1 {
		t.Errorf("FirstExceeding = %d, want 1", got)
	}
	if got := (VC{1, 2}).FirstExceeding(VC{1, 2, 3}); got != -1 {
		t.Errorf("FirstExceeding on ordered pair = %d, want -1", got)
	}
}

func TestCopyIndependence(t *testing.T) {
	a := VC{1, 2, 3}
	b := a.Copy()
	b = b.Set(0, 99)
	if a.Get(0) != 1 {
		t.Error("Copy must be independent of the original")
	}
}

func TestCopyInto(t *testing.T) {
	dst := make(VC, 4)
	src := VC{7, 8}
	dst = dst.CopyInto(src)
	if !dst.Equal(src) {
		t.Errorf("CopyInto = %v, want %v", dst, src)
	}
	// Small destination falls back to allocation.
	var small VC
	small = small.CopyInto(src)
	if !small.Equal(src) {
		t.Errorf("CopyInto (alloc) = %v, want %v", small, src)
	}
}

func TestVCEpoch(t *testing.T) {
	v := VC{4, 8}
	if e := v.Epoch(1); e.Tid() != 1 || e.Clock() != 8 {
		t.Errorf("Epoch(1) = %v, want 8@1", e)
	}
	if e := v.Epoch(9); e.Clock() != 0 {
		t.Errorf("Epoch beyond length = %v, want clock 0", e)
	}
}

func TestString(t *testing.T) {
	if got := (VC{4, 8}).String(); got != "<4,8>" {
		t.Errorf("String = %q", got)
	}
	if got := MakeEpoch(0, 4).String(); got != "4@0" {
		t.Errorf("epoch String = %q", got)
	}
}

// randVC builds a small vector clock from quick-generated data.
func randVC(xs []uint8) VC {
	v := make(VC, len(xs))
	for i, x := range xs {
		v[i] = Clock(x % 8)
	}
	return v
}

func TestJoinLawsProperty(t *testing.T) {
	commut := func(a, b []uint8) bool {
		x, y := randVC(a), randVC(b)
		return x.Copy().Join(y).Equal(y.Copy().Join(x))
	}
	if err := quick.Check(commut, nil); err != nil {
		t.Errorf("join not commutative: %v", err)
	}
	assoc := func(a, b, c []uint8) bool {
		x, y, z := randVC(a), randVC(b), randVC(c)
		l := x.Copy().Join(y).Join(z)
		r := x.Copy().Join(y.Copy().Join(z))
		return l.Equal(r)
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("join not associative: %v", err)
	}
	idem := func(a []uint8) bool {
		x := randVC(a)
		return x.Copy().Join(x).Equal(x)
	}
	if err := quick.Check(idem, nil); err != nil {
		t.Errorf("join not idempotent: %v", err)
	}
}

func TestJoinIsLeastUpperBoundProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		x, y := randVC(a), randVC(b)
		j := x.Copy().Join(y)
		return x.LEq(j) && y.LEq(j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("join not an upper bound: %v", err)
	}
}

func TestEpochLEqMatchesVCLEqProperty(t *testing.T) {
	// c@t ⊑ V must agree with the pointwise order on the VC interpretation
	// of the epoch (Appendix A interprets c@t as λu. if t=u then c else 0).
	f := func(tid uint8, clock uint8, b []uint8) bool {
		t0 := Tid(tid % 6)
		c0 := Clock(clock % 8)
		v := randVC(b)
		e := MakeEpoch(t0, c0)
		asVC := VC{}.Set(t0, c0)
		return e.LEq(v) == asVC.LEq(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLEqReflexiveTransitiveProperty(t *testing.T) {
	refl := func(a []uint8) bool {
		x := randVC(a)
		return x.LEq(x)
	}
	if err := quick.Check(refl, nil); err != nil {
		t.Errorf("⊑ not reflexive: %v", err)
	}
	trans := func(a, b, c []uint8) bool {
		x, y, z := randVC(a), randVC(b), randVC(c)
		if x.LEq(y) && y.LEq(z) {
			return x.LEq(z)
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Errorf("⊑ not transitive: %v", err)
	}
}

func TestBytes(t *testing.T) {
	v := New(4)
	if v.Bytes() != 32 {
		t.Errorf("Bytes = %d, want 32", v.Bytes())
	}
}
