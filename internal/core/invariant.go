package core

import (
	"fmt"

	"fasttrack/internal/vc"
)

// CheckWellFormed verifies Definition 1 of the paper's Appendix A on the
// current analysis state σ = (C, L, R, W):
//
//  1. for all u ≠ t: C_u(t) < C_t(t) — a thread's own clock entry is
//     strictly ahead of every other thread's view of it;
//  2. for all locks m, threads t: L_m(t) < C_t(t);
//  3. for all variables x, threads t: R_x(t) ≤ C_t(t);
//  4. for all variables x, threads t: W_x(t) ≤ C_t(t).
//
// Lemma 1 states σ0 is well-formed and Lemma 2 that every transition
// preserves well-formedness; the soundness proof (Theorem 2) rests on
// these invariants. The property tests drive random feasible traces
// through the detector and call this after every step. It returns the
// first violation found, or nil.
//
// An epoch is interpreted as the vector clock λu. if u = t then c else 0
// (Appendix A), so conditions 3 and 4 reduce to a single component check
// for epoch-mode variables.
func (d *Detector) CheckWellFormed() error {
	// Condition 1. Threads dropped by Compact (nil clock) are no longer
	// part of the analysis state and are skipped, as are threads whose
	// scalar clock has pinned at vc.MaxClock: inc_t saturates there (see
	// vc.Inc), so the strict inequalities 1 and 2 degrade to non-strict
	// ones by design — the precision loss Stats.ClockSaturations counts.
	for u := range d.threads {
		cu := d.threads[u].c
		if cu == nil {
			continue
		}
		for t := range d.threads {
			if t == u || d.threads[t].c == nil || d.threads[t].c.Get(vc.Tid(t)) >= vc.MaxClock {
				continue
			}
			if cu.Get(vc.Tid(t)) >= d.threads[t].c.Get(vc.Tid(t)) {
				return fmt.Errorf("C_%d(%d) = %d >= C_%d(%d) = %d",
					u, t, cu.Get(vc.Tid(t)), t, t, d.threads[t].c.Get(vc.Tid(t)))
			}
		}
	}
	// Condition 2 (locks and volatiles both instantiate L).
	check2 := func(kind string, id uint64, l vc.VC) error {
		for t := range d.threads {
			if d.threads[t].c == nil || d.threads[t].c.Get(vc.Tid(t)) >= vc.MaxClock {
				continue
			}
			if l.Get(vc.Tid(t)) >= d.threads[t].c.Get(vc.Tid(t)) {
				return fmt.Errorf("L_%s%d(%d) = %d >= C_%d(%d) = %d",
					kind, id, t, l.Get(vc.Tid(t)), t, t, d.threads[t].c.Get(vc.Tid(t)))
			}
		}
		return nil
	}
	var lerr error
	d.locks.eachRef(func(m uint64, l *vc.VC) {
		if lerr == nil {
			lerr = check2("m", m, *l)
		}
	})
	d.vols.eachRef(func(v uint64, l *vc.VC) {
		if lerr == nil {
			lerr = check2("v", v, *l)
		}
	})
	if lerr != nil {
		return lerr
	}
	// Channel snapshots are release clocks too (captured before the
	// sender/receiver/closer incremented), so condition 2 extends to them.
	for ch, cs := range d.chans {
		for _, ring := range [][]chanSlot{cs.sendRing, cs.recvRing} {
			for i := range ring {
				if ring[i].seq == 0 || ring[i].clk == nil {
					continue
				}
				if err := check2("c", ch, ring[i].clk); err != nil {
					return err
				}
			}
		}
		for _, acc := range []vc.VC{cs.sendAcc, cs.recvAcc, cs.closeClk} {
			if acc == nil {
				continue
			}
			if err := check2("c", ch, acc); err != nil {
				return err
			}
		}
	}
	// Conditions 3 and 4.
	checkEpoch := func(what string, x uint64, e vc.Epoch) error {
		t := e.Tid()
		if int(t) >= len(d.threads) || d.threads[t].c == nil {
			if e != vc.Bottom {
				return fmt.Errorf("%s_%d = %v refers to unknown or dropped thread", what, x, e)
			}
			return nil
		}
		if e.Clock() > d.threads[t].c.Get(t) {
			return fmt.Errorf("%s_%d = %v > C_%d(%d) = %d",
				what, x, e, t, t, d.threads[t].c.Get(t))
		}
		return nil
	}
	checkVar := func(x uint64, w, r vc.Epoch, rs *rvcStore) error {
		if err := checkEpoch("W", x, w); err != nil {
			return err
		}
		if isShared(r) {
			rvc := rs.vcAt(sharedIdx(r))
			for t := range d.threads {
				if d.threads[t].c == nil {
					if rvc.Get(vc.Tid(t)) > 0 {
						return fmt.Errorf("R_%d(%d) references dropped thread", x, t)
					}
					continue
				}
				if rvc.Get(vc.Tid(t)) > d.threads[t].c.Get(vc.Tid(t)) {
					return fmt.Errorf("R_%d(%d) = %d > C_%d(%d) = %d",
						x, t, rvc.Get(vc.Tid(t)), t, t, d.threads[t].c.Get(vc.Tid(t)))
				}
			}
			return nil
		}
		return checkEpoch("R", x, r)
	}
	for i := range d.stripes {
		s := &d.stripes[i]
		for slot := range s.tab.w {
			if !s.tab.live(slot) {
				continue
			}
			if err := checkVar(s.tab.key(slot), s.tab.w[slot], s.tab.r[slot], &s.shared); err != nil {
				return err
			}
		}
	}
	return nil
}
