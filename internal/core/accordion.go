package core

import "fasttrack/internal/vc"

// This file implements an accordion-clock-style compaction pass
// (Christiaens & De Bosschere, Euro-Par 2001 — cited in the paper's
// Sections 4 and 6 as a complementary space optimization): programs with
// many short-lived threads accumulate shadow state referring to dead
// threads, and that state can be reclaimed once it is dominated by every
// live thread's clock.
//
// The key observation: a reference to dead thread u — a write epoch
// c@u, a read-vector component R_x(u) = c, or a lock component
// L_m(u) = c — only ever participates in future checks against live
// threads' clocks. If c <= C_t(u) for every live thread t (and every
// thread created later inherits its knowledge of u from live threads, so
// the bound persists), each such check is guaranteed to pass, and the
// reference can be replaced by the minimal value without changing any
// future analysis outcome. Once nothing references u, its own clock
// C_u can be dropped entirely.
//
// Compaction is sound but changes nothing about precision — the
// conformance property tests replay random traces with compaction
// injected at arbitrary points and require identical warnings.

// CompactStats reports what a compaction pass reclaimed.
type CompactStats struct {
	// DroppedThreads is the number of dead threads whose clocks were
	// fully reclaimed.
	DroppedThreads int
	// ClearedWriteEpochs and ClearedReadRefs count shadow references
	// rewritten to the minimal value.
	ClearedWriteEpochs int
	ClearedReadRefs    int
	// RetainedThreads counts dead threads still referenced above the
	// live-dominated bound (they stay until a later pass).
	RetainedThreads int
}

// Compact reclaims shadow state referring to the given dead threads.
// The caller asserts that each listed thread has terminated and been
// joined (or synchronized past a barrier) — i.e. no further events by it
// will arrive; feeding an event for a dropped thread afterwards yields
// unspecified analysis results, exactly as an infeasible trace would.
//
// The pass is O(vars + locks + threads) and intended to be run
// occasionally (e.g. after a wave of worker threads exits), not per
// event.
func (d *Detector) Compact(dead []int32) CompactStats {
	var st CompactStats
	deadSet := make(map[vc.Tid]bool, len(dead))
	for _, u := range dead {
		if int(u) < len(d.threads) {
			deadSet[vc.Tid(u)] = true
		}
	}
	if len(deadSet) == 0 {
		return st
	}

	// minLive[u] = min over live threads t of C_t(u): the clock of u
	// that every live thread has already absorbed.
	minLive := make(map[vc.Tid]vc.Clock, len(deadSet))
	for u := range deadSet {
		first := true
		var m vc.Clock
		for t := range d.threads {
			if deadSet[vc.Tid(t)] || d.threads[t].c == nil {
				continue
			}
			c := d.threads[t].c.Get(u)
			if first || c < m {
				m = c
				first = false
			}
		}
		if first {
			m = 0 // no live threads at all: nothing is dominated
		}
		minLive[u] = m
	}

	dominated := func(e vc.Epoch) bool {
		return deadSet[e.Tid()] && e.Clock() <= minLive[e.Tid()]
	}
	// retained marks dead threads still referenced somewhere.
	retained := map[vc.Tid]bool{}

	compactVar := func(wp, rp *vc.Epoch, rs *rvcStore) {
		w := *wp
		if w != vc.Bottom && deadSet[w.Tid()] {
			if dominated(w) {
				*wp = vc.Bottom
				st.ClearedWriteEpochs++
			} else {
				retained[w.Tid()] = true
			}
		}
		r := *rp
		if isShared(r) {
			idx := sharedIdx(r)
			rvc := rs.vcAt(idx)
			changed := false
			for u := range deadSet {
				if c := rvc.Get(u); c > 0 {
					if c <= minLive[u] {
						rvc[u] = 0
						st.ClearedReadRefs++
						changed = true
					} else {
						retained[u] = true
					}
				}
			}
			if changed {
				// Trim the region to its live width (the slab equivalent
				// of VC.Trim); the compactSlab at the end of the pass
				// reclaims the slack.
				n := len(rvc)
				for n > 0 && rvc[n-1] == 0 {
					n--
				}
				if n == 0 {
					// All recorded readers reclaimed: back to epoch mode;
					// the store slot's region is dropped, not pooled —
					// compaction is a reclamation seam.
					rs.discard(idx)
					*rp = vc.Bottom
				} else {
					rs.regions[idx].width = int32(n)
				}
			}
		} else if r != vc.Bottom && deadSet[r.Tid()] {
			if dominated(r) {
				*rp = vc.Bottom
				st.ClearedReadRefs++
			} else {
				retained[r.Tid()] = true
			}
		}
	}
	for i := range d.stripes {
		s := &d.stripes[i]
		for slot := range s.tab.w {
			if s.tab.live(slot) {
				compactVar(&s.tab.w[slot], &s.tab.r[slot], &s.shared)
			}
		}
		s.shared.compactSlab()
	}

	// Lock and volatile clocks: dominated dead components are zeroed.
	compactL := func(lt *lockTab) {
		lt.eachRef(func(_ uint64, p *vc.VC) {
			l := *p
			changed := false
			for u := range deadSet {
				if c := l.Get(u); c > 0 {
					if c <= minLive[u] {
						l = l.Set(u, 0)
						changed = true
					} else {
						retained[u] = true
					}
				}
			}
			if changed {
				*p = l.Trim()
			}
		})
	}
	compactL(&d.locks)
	compactL(&d.vols)

	// Drop fully-unreferenced dead threads' own clocks. Dropped, not
	// pooled: compaction's contract is that the footprint shrinks, and
	// pooled slabs would stay pinned (and counted).
	for u := range deadSet {
		if retained[u] {
			st.RetainedThreads++
			continue
		}
		if d.threads[u].c != nil {
			d.threads[u].c = nil
			d.threads[u].epoch = vc.Bottom
			st.DroppedThreads++
		}
	}
	// Live threads' vectors can shed trailing zeros too.
	for t := range d.threads {
		if d.threads[t].c != nil {
			d.threads[t].c = d.threads[t].c.Trim()
		}
	}
	return st
}
