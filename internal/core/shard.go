package core

import (
	"fmt"

	"fasttrack/internal/rr"
	"fasttrack/internal/vc"
)

// This file holds the detector's shadow storage: one or more stripes,
// each owning the variable table, read-VC store, access counters and
// race list that the access handlers read and write. A serial detector
// has a single stripe whose table is dense — the slot is the variable id
// itself — and the lock-striped ingestion path (see rr/stripe.go for the
// locking contract and the legality argument) gives each of its n
// stripes a hashed table, so that everything an access mutates is
// confined to the stripe whose lock the caller holds. Thread, lock and
// volatile clocks stay on the detector: the access path only reads them,
// and every event that writes them is delivered under full exclusion.
//
// Both table forms are struct-of-arrays (DESIGN.md §13): the hot epoch
// pair sits in parallel w/r arrays, so the same-epoch fast path costs
// one slot resolution and one epoch compare — an index in the dense
// form, one probe in the hashed form; no map header chase, no
// per-variable heap node. Race flags are a bitset. Cold per-variable
// state (detailed-mode indices, provenance records, enriched reports)
// lives in a side slice reached through a per-slot index, materialized
// only for variables that need it.

// slotUsed marks a live slot in a hashed table's meta array.
const slotUsed = 1

// stripeTab is one stripe's variable table. In the dense form slot x
// holds variable x, every slot below len(w) is live, and keys and meta
// stay empty. In the hashed form it is open addressing with linear
// probing over power-of-two parallel arrays. Variables are never
// deleted (compaction rewrites values, not keys), so probing needs no
// tombstones. Growth doubles at 3/4 load.
type stripeTab struct {
	dense   bool
	keys    []uint64
	meta    []uint8
	w, r    []vc.Epoch
	flagged []uint64 // race flags, one bit per slot
	coldIdx []int32  // slot -> cold index, -1 if none (or past the end); junk for unused slots
	cold    []varCold
	mask    uint64
	used    int
}

// varCold is the rarely-touched per-variable state: the most recent
// non-redundant read and write, and the enriched report once a race is
// detected. A record's event index serves detailed reports; its thread,
// epoch and clock generation are filled in only while the flight
// recorder is on (tid stays -1 otherwise, so the enricher never quotes a
// clock for an access it did not record). Stripe-confined like the rest
// of the table.
type varCold struct {
	r, w   provAccess
	detail *rr.DetailedReport
}

// mix64 is the 64-bit murmur finalizer, the probe hash of stripeTab.
// Raw variable ids are often sequential, which linear probing punishes;
// the finalizer's avalanche spreads them across the table. sampleHash
// (sampling.go) uses the top half of the same mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// lookup returns variable x's slot, inserting a fresh history (R = W =
// ⊥e, unflagged) if the table does not have one.
func (tb *stripeTab) lookup(x uint64) int {
	if tb.dense {
		if x >= uint64(len(tb.w)) {
			tb.growDense(int(x) + 1)
		}
		return int(x)
	}
	if tb.mask != 0 {
		h := mix64(x) & tb.mask
		for tb.meta[h]&slotUsed != 0 {
			if tb.keys[h] == x {
				return int(h)
			}
			h = (h + 1) & tb.mask
		}
	}
	return tb.insert(x)
}

// find returns variable x's slot, or -1 without inserting.
func (tb *stripeTab) find(x uint64) int {
	if tb.dense {
		if x < uint64(len(tb.w)) {
			return int(x)
		}
		return -1
	}
	if tb.mask == 0 {
		return -1
	}
	h := mix64(x) & tb.mask
	for tb.meta[h]&slotUsed != 0 {
		if tb.keys[h] == x {
			return int(h)
		}
		h = (h + 1) & tb.mask
	}
	return -1
}

// live reports whether slot holds a variable.
func (tb *stripeTab) live(slot int) bool { return tb.dense || tb.meta[slot]&slotUsed != 0 }

// key returns the variable a live slot holds.
func (tb *stripeTab) key(slot int) uint64 {
	if tb.dense {
		return uint64(slot)
	}
	return tb.keys[slot]
}

// isFlagged reports whether a race was recorded on slot's variable.
func (tb *stripeTab) isFlagged(slot int) bool { return tb.flagged[slot>>6]&(1<<(slot&63)) != 0 }

// flag records a race on slot's variable.
func (tb *stripeTab) flag(slot int) { tb.flagged[slot>>6] |= 1 << (slot & 63) }

func (tb *stripeTab) insert(x uint64) int {
	if tb.mask == 0 || tb.used*4 >= len(tb.keys)*3 {
		tb.grow()
	}
	h := mix64(x) & tb.mask
	for tb.meta[h]&slotUsed != 0 {
		h = (h + 1) & tb.mask
	}
	tb.keys[h] = x
	tb.meta[h] = slotUsed
	tb.coldIdx[h] = -1
	tb.used++
	return int(h)
}

// grow rehashes a hashed table into arrays of double the size (64 slots
// to start). The cold slice is carried by index, so only the slot arrays
// move. Fresh slots are zero: W = R = ⊥e is exactly a fresh variable's
// history.
func (tb *stripeTab) grow() {
	n := 2 * len(tb.keys)
	if n == 0 {
		n = 64
	}
	old := *tb
	tb.keys = make([]uint64, n)
	tb.meta = make([]uint8, n)
	tb.w = make([]vc.Epoch, n)
	tb.r = make([]vc.Epoch, n)
	tb.flagged = make([]uint64, n/64)
	tb.coldIdx = make([]int32, n)
	tb.mask = uint64(n - 1)
	for i := range old.keys {
		if old.meta[i]&slotUsed == 0 {
			continue
		}
		h := mix64(old.keys[i]) & tb.mask
		for tb.meta[h]&slotUsed != 0 {
			h = (h + 1) & tb.mask
		}
		tb.keys[h] = old.keys[i]
		tb.meta[h] = old.meta[i]
		tb.w[h] = old.w[i]
		tb.r[h] = old.r[i]
		if old.isFlagged(i) {
			tb.flag(int(h))
		}
		tb.coldIdx[h] = old.coldIdx[i]
	}
}

// growDense extends a dense table to n slots. Growth doubles explicitly
// rather than relying on append: the runtime's large-slice growth factor
// (~1.25x) re-copies a multi-megabyte table dozens of times during a
// rapid-allocation phase, and per-element appends pay that for w and r
// separately. make zeroes the whole capacity and the table never
// shrinks, so extending within capacity is a pure reslice — fresh
// variables are born ⊥e and unflagged for free.
func (tb *stripeTab) growDense(n int) {
	tb.w = growSlice(tb.w, n, 64)
	tb.r = growSlice(tb.r, n, 64)
	if k := (n + 63) >> 6; k > len(tb.flagged) {
		tb.flagged = growSlice(tb.flagged, k, 16)
	}
}

// growSlice extends s to length n, doubling its capacity (to no less
// than least) as needed. The in-capacity case is a reslice that inlines
// into growDense, so first-touch accesses pay no allocator call.
func growSlice[T any](s []T, n, least int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return reallocSlice(s, n, least)
}

func reallocSlice[T any](s []T, n, least int) []T {
	c := 2 * cap(s)
	if c < least {
		c = least
	}
	for c < n {
		c *= 2
	}
	ns := make([]T, n, c)
	copy(ns, s)
	return ns
}

// coldOf returns slot's cold entry, or nil if none was materialized.
func (tb *stripeTab) coldOf(slot int) *varCold {
	if slot < len(tb.coldIdx) {
		if ci := tb.coldIdx[slot]; ci >= 0 {
			return &tb.cold[ci]
		}
	}
	return nil
}

// coldFor returns (materializing if needed) slot's cold entry.
func (tb *stripeTab) coldFor(slot int) *varCold {
	if slot < len(tb.coldIdx) && tb.coldIdx[slot] >= 0 {
		return &tb.cold[tb.coldIdx[slot]]
	}
	return tb.newCold(slot)
}

// newCold materializes slot's cold entry. A dense table extends its
// index array only here, so detectors that never record cold state pay
// nothing for it.
func (tb *stripeTab) newCold(slot int) *varCold {
	for len(tb.coldIdx) <= slot {
		tb.coldIdx = append(tb.coldIdx, -1)
	}
	none := provAccess{idx: -1, tid: -1}
	tb.cold = append(tb.cold, varCold{r: none, w: none})
	tb.coldIdx[slot] = int32(len(tb.cold) - 1)
	return &tb.cold[len(tb.cold)-1]
}

// bytes is the table's contribution to the shadow footprint: the
// parallel slot arrays (16 bytes per dense slot, 29 per hashed slot,
// plus the flag bits) and the cold entries (72 bytes each).
func (tb *stripeTab) bytes() int64 {
	return int64(cap(tb.keys))*8 + int64(cap(tb.meta)) +
		int64(cap(tb.w)+cap(tb.r))*8 + int64(cap(tb.flagged))*8 +
		int64(cap(tb.coldIdx))*4 + int64(cap(tb.cold))*72
}

// stripeState is one stripe's share of the analysis state: the variable
// table, the read-VC store backing its read-shared variables, the
// access-path counters those variables' accesses are counted into, and
// the races detected on them. Under sharding everything in it is
// guarded by the caller-held stripe lock.
type stripeState struct {
	tab    stripeTab
	st     rr.Stats
	shared rvcStore
	races  []rr.Report
}

// EnableSharding switches the detector's access-path storage to n
// hashed stripes, implementing rr.ShardedTool. n < 2 keeps the serial
// dense layout. It must be called on a fresh detector: remapping
// already-populated shadow state across stripes is not supported. The
// shadow-memory budget is incompatible with sharding — its squeeze walks
// the serial layout's one stripe.
func (d *Detector) EnableSharding(n int) {
	if n < 2 {
		return
	}
	if d.budget > 0 {
		panic("core: EnableSharding is incompatible with a memory budget")
	}
	if d.Stats().Events != 0 || len(d.threads) > 0 || len(d.serial[0].tab.w) > 0 {
		panic("core: EnableSharding called after events were handled")
	}
	d.stripes = make([]stripeState, n)
}

// stripeOf returns the stripe owning variable x. Under sharding it must
// agree with the lock the caller chose, so it uses the shared
// rr.StripeOf mapping; a serial detector's one stripe owns everything.
func (d *Detector) stripeOf(x uint64) *stripeState {
	if len(d.stripes) == 1 {
		return &d.serial[0]
	}
	return &d.stripes[rr.StripeOf(x, len(d.stripes))]
}

// ThreadsMaterialized implements rr.ShardedTool: the number of thread
// states created so far. The sharded Monitor uses it as the watermark
// below which an access's thread lookup is guaranteed read-only.
func (d *Detector) ThreadsMaterialized() int { return len(d.threads) }

// StripeRaces implements rr.ShardedTool: the races recorded on stripe s
// in detection order (a serial detector has the one stripe 0). The
// returned slice is the stripe's backing store; callers must hold
// stripe lock s (or full exclusion) and must not retain it across
// unlocks.
func (d *Detector) StripeRaces(s int) []rr.Report {
	if s < 0 || s >= len(d.stripes) {
		panic(fmt.Sprintf("core: StripeRaces(%d) with %d stripes", s, len(d.stripes)))
	}
	return d.stripes[s].races
}

var _ rr.ShardedTool = (*Detector)(nil)
