// Package vc implements the two happens-before representations used by
// FastTrack and the vector-clock race detectors it is compared against:
// full vector clocks (Mattern 1988) and lightweight epochs (Flanagan &
// Freund, PLDI 2009, Section 3).
//
// A vector clock V : Tid -> Clock records one scalar clock per thread.
// An epoch c@t pairs the clock c of a single thread t and fits in one
// machine word, so copying and comparing epochs is O(1) regardless of the
// number of threads.
//
// All detectors in this module share these primitives so that performance
// comparisons between them are apples-to-apples, as in the paper's
// evaluation (Section 5.1).
package vc

import (
	"fmt"
	"strings"
)

// Tid identifies a thread. Thread ids are small dense integers assigned in
// fork order, starting at 0 for the initial thread.
type Tid int32

// Clock is a per-thread scalar logical clock. Clocks start at 1 (the
// initial analysis state is C_t = inc_t(bottom)) and are incremented at
// each lock release, fork, volatile write, and barrier release performed
// by the thread.
type Clock uint64

// Epoch packs a clock and a thread identifier into a single word, written
// c@t in the paper. The top TidBits bits hold the thread id and the low
// ClockBits bits hold the clock.
//
// The paper packs 8-bit tids with 24-bit clocks into 32 bits and notes
// that switching to 64 bits accommodates larger programs (Section 4); we
// use the 64-bit layout.
type Epoch uint64

const (
	// ClockBits is the width of the clock field of an Epoch.
	ClockBits = 40
	// TidBits is the width of the thread-id field of an Epoch.
	TidBits = 64 - ClockBits
	// MaxClock is the largest representable clock value.
	MaxClock = Clock(1)<<ClockBits - 1
	// MaxTid is the largest representable thread id.
	MaxTid = Tid(1)<<TidBits - 1

	clockMask = uint64(1)<<ClockBits - 1
)

// Bottom is the minimal epoch 0@0, written ⊥e in the paper. It is the
// initial read and write history of every variable. (Minimal epochs are
// not unique — 0@1 is also minimal — but Bottom is the canonical one.)
const Bottom Epoch = 0

// MakeEpoch returns the epoch c@t. Clocks beyond MaxClock saturate at
// MaxClock rather than panicking: a thread that performs 2^40
// synchronization operations stops advancing its epoch, which can only
// make the analysis miss races (an access ordered after a saturated
// clock still compares >=), never report false ones. Detectors count
// the condition in Stats.ClockSaturations so long-running sessions can
// surface it instead of dying mid-stream.
func MakeEpoch(t Tid, c Clock) Epoch {
	if t < 0 || t > MaxTid {
		panic(fmt.Sprintf("vc: thread id %d out of range [0,%d]", t, MaxTid))
	}
	if c > MaxClock {
		c = MaxClock
	}
	return Epoch(uint64(t)<<ClockBits | uint64(c))
}

// Tid extracts the thread identifier t of an epoch c@t.
func (e Epoch) Tid() Tid { return Tid(uint64(e) >> ClockBits) }

// Clock extracts the clock c of an epoch c@t.
func (e Epoch) Clock() Clock { return Clock(uint64(e) & clockMask) }

// LEq reports whether the epoch happens before (or equals) the vector
// clock V, written c@t ⊑ V in the paper: c <= V(t). This is the O(1)
// comparison that replaces the O(n) vector-clock comparison on the
// FastTrack fast paths. The body is flattened (no Get/Clock/Tid calls)
// so it inlines into the access handlers: one shift, one predictable
// bounds branch, one compare.
func (e Epoch) LEq(v VC) bool {
	t := uint64(e) >> ClockBits
	var c Clock
	if t < uint64(len(v)) {
		c = v[t]
	}
	return Clock(uint64(e)&clockMask) <= c
}

// String renders the epoch in the paper's c@t notation.
func (e Epoch) String() string { return fmt.Sprintf("%d@%d", e.Clock(), e.Tid()) }

// VC is a vector clock: a growable dense vector of per-thread clocks.
// The zero value is the minimal vector clock ⊥V (all components zero).
// Components beyond len are implicitly zero.
type VC []Clock

// New returns a fresh minimal vector clock with capacity for n threads.
func New(n int) VC { return make(VC, n) }

// Get returns V(t), treating missing components as zero.
func (v VC) Get(t Tid) Clock {
	if int(t) < len(v) {
		return v[t]
	}
	return 0
}

// Set updates component t to c, growing the vector if needed, and returns
// the (possibly reallocated) vector.
func (v VC) Set(t Tid, c Clock) VC {
	v = v.grow(t)
	v[t] = c
	return v
}

// Inc increments component t (the helper function inc_t of Section 2.2)
// and returns the (possibly reallocated) vector. The component saturates
// at MaxClock — the widest clock an Epoch can carry — so that a
// long-lived thread's 2^40'th increment degrades precision (its epoch
// stops advancing; see MakeEpoch) instead of panicking the pipeline.
func (v VC) Inc(t Tid) VC {
	v = v.grow(t)
	if v[t] < MaxClock {
		v[t]++
	}
	return v
}

// grow extends v with zero components so that index t is valid.
func (v VC) grow(t Tid) VC {
	if int(t) < len(v) {
		return v
	}
	n := int(t) + 1
	if n < 2*len(v) {
		n = 2 * len(v)
	}
	w := make(VC, n)
	copy(w, v)
	return w[:int(t)+1]
}

// Join computes the pointwise maximum V1 ⊔ V2 in place on v and returns
// the (possibly reallocated) result. This is an O(n) operation.
func (v VC) Join(w VC) VC {
	if len(w) > len(v) {
		v = v.grow(Tid(len(w) - 1))
	}
	for i, c := range w {
		if c > v[i] {
			v[i] = c
		}
	}
	return v
}

// LEq reports the pointwise partial order V1 ⊑ V2: for all t,
// V1(t) <= V2(t). This is an O(n) operation.
func (v VC) LEq(w VC) bool {
	for i, c := range v {
		if c > w.Get(Tid(i)) {
			return false
		}
	}
	return true
}

// FirstExceeding returns the smallest thread id u such that V1(u) > V2(u),
// or -1 if V1 ⊑ V2. Race reports use it to name the concurrent thread.
func (v VC) FirstExceeding(w VC) Tid {
	for i, c := range v {
		if c > w.Get(Tid(i)) {
			return Tid(i)
		}
	}
	return -1
}

// Copy returns an independent copy of v.
func (v VC) Copy() VC {
	w := make(VC, len(v))
	copy(w, v)
	return w
}

// CopyInto overwrites v with the contents of w, reusing v's storage when
// possible, and returns the result.
func (v VC) CopyInto(w VC) VC {
	if cap(v) < len(w) {
		return w.Copy()
	}
	v = v[:len(w)]
	copy(v, w)
	return v
}

// Epoch returns the epoch Clock(t)@t for component t.
func (v VC) Epoch(t Tid) Epoch { return MakeEpoch(t, v.Get(t)) }

// Bytes reports the shadow-memory footprint of the vector's backing array,
// used by the memory-overhead accounting of Table 3.
func (v VC) Bytes() int { return cap(v) * 8 }

// Equal reports whether two vector clocks denote the same function
// Tid -> Clock (trailing zero components are insignificant).
func (v VC) Equal(w VC) bool { return v.LEq(w) && w.LEq(v) }

// Trim returns a vector denoting the same function with trailing zero
// components removed; when that frees at least half the backing array it
// reallocates, releasing the memory. Used by the accordion-style
// compaction of dead-thread state (cf. Christiaens & De Bosschere's
// accordion clocks, cited in the paper's Section 4).
func (v VC) Trim() VC {
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	if n <= cap(v)/2 {
		w := make(VC, n)
		copy(w, v[:n])
		return w
	}
	return v[:n]
}

// String renders the vector in the paper's ⟨c0,c1,...⟩ notation.
func (v VC) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, c := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	b.WriteByte('>')
	return b.String()
}
