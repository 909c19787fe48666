package core

import "fasttrack/internal/vc"

// This file implements the detector's shadow-memory budget: an optional
// byte ceiling under which FastTrack degrades precision instead of
// growing without bound on adversarial workloads. The degradation
// ladder has two rungs, both accounted in Stats:
//
//  1. Squeeze: every read-shared vector clock is demoted back to an
//     epoch — the most advanced reader survives, the rest of the read
//     history is forgotten (the accordion-clock idea of Sections 4/6
//     applied under pressure rather than at a write). Races against the
//     forgotten readers may be missed; nothing unsound is reported,
//     because the kept component already satisfied R_x(t) <= C_t(t)
//     (the Appendix A invariants are preserved).
//  2. Stop shadowing: if squeezing is not enough, the shadow table
//     stops growing. Locations at or past the fold point (the table's
//     length when this rung fired) are no longer analyzed: their
//     accesses are counted in SampledOut, exactly as the sampling tier
//     counts a skipped access, so Stats.DetectionProbability says how
//     much of the run went unchecked. Locations shadowed before the
//     fold keep their precise state. A skipped access can only mask a
//     race, never invent one; folding fresh locations into shared
//     per-object slots, as Coarse granularity does, would report races
//     between accesses to different locations.
//
// The footprint is re-checked every budgetCheckInterval accesses, so
// between checks the footprint can overshoot by the shadow cost of that
// many fresh locations (tens of kilobytes), never unboundedly.

// budgetCheckInterval is the number of accesses between footprint
// checks.
const budgetCheckInterval = 1024

// SetMemoryBudget caps the detector's shadow footprint at the given
// number of bytes (0 disables the budget). The cap is enforced by
// degrading precision, never by aborting; see Stats.MemSqueezes and
// Stats.SampledOut for what each rung cost.
func (d *Detector) SetMemoryBudget(bytes int64) {
	if bytes > 0 && len(d.stripes) > 1 {
		// The squeeze walks the serial layout's one stripe.
		panic("core: memory budget is incompatible with sharding")
	}
	d.budget = bytes
}

// budgetAccess periodically re-checks the footprint and reports whether
// variable x is still shadowed. Called from the read/write handlers'
// slot resolution only when a budget is set, which implies the serial
// layout's one stripe.
func (d *Detector) budgetAccess(x uint64) bool {
	if st := &d.serial[0].st; (st.Reads+st.Writes)%budgetCheckInterval == 0 {
		d.enforceBudget()
	}
	return d.foldAt == 0 || x < d.foldAt
}

// enforceBudget walks the degradation ladder until the footprint is
// back under the budget or both rungs are exhausted.
func (d *Detector) enforceBudget() {
	if d.footprint() <= d.budget {
		return
	}
	// Rung 1: squeeze read vector clocks back to epochs and shed slack.
	// The store slots are discarded, not released, and the slab repacked:
	// the point is to give the memory back to the allocator, not keep it
	// pooled. The budget implies the serial layout's one stripe.
	s := &d.serial[0]
	for x, rx := range s.tab.r {
		if !isShared(rx) {
			continue
		}
		idx := sharedIdx(rx)
		s.tab.r[x] = squeezeEpoch(s.shared.vcAt(idx))
		s.shared.discard(idx)
		d.st.MemSqueezes++
	}
	s.shared.compactSlab()
	for i := range d.threads {
		if d.threads[i].c != nil {
			d.threads[i].c = d.threads[i].c.Trim()
		}
	}
	d.pool.Drain()
	if d.footprint() <= d.budget {
		return
	}
	// Rung 2: stop shadowing locations the table does not hold yet.
	// Locations below foldAt keep their precise state.
	if d.foldAt == 0 {
		d.foldAt = max(uint64(len(s.tab.r)), 1)
	}
}

// squeezeEpoch demotes a read vector clock to the epoch of its most
// advanced component (⊥e if the clock is empty).
func squeezeEpoch(rvc vc.VC) vc.Epoch {
	var (
		bt vc.Tid
		bc vc.Clock
	)
	for t, c := range rvc {
		if c > bc {
			bc, bt = c, vc.Tid(t)
		}
	}
	if bc == 0 {
		return vc.Bottom
	}
	return vc.MakeEpoch(bt, bc)
}
