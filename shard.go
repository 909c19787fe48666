package fasttrack

import (
	"fmt"
	"sync"

	"fasttrack/internal/obs"
	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// This file implements the Monitor's lock-striped concurrent ingestion
// path. The locking discipline (see also internal/rr/stripe.go):
//
//   - Accesses (Read/Write) take the monitor's RWMutex in read mode plus
//     the lock of the accessed variable's stripe, so accesses on
//     different stripes run in parallel. This is legal because a
//     FastTrack access handler reads only the accessing thread's vector
//     clock and mutates only that variable's shadow state.
//   - Synchronization events (acquire, release, fork, join, volatile
//     accesses, barriers, wait) mutate cross-thread clocks, so they take
//     the RWMutex in write mode, excluding every stripe.
//   - An access by a thread the detector has not materialized yet also
//     takes the write lock (the thread table must grow); the ensured
//     watermark below makes that a once-per-thread slow path.
//
// What ordering survives: per stripe, accesses are checked in lock
// acquisition order, and every access observes all sync events recorded
// before it. The interleaving of accesses on different stripes is
// unspecified — exactly the freedom the algorithm's commutativity makes
// irrelevant to the reported race set.

// stripeLock is one stripe's lock plus its stripe-confined bookkeeping;
// padded so neighboring stripes do not share a cache line.
type stripeLock struct {
	sync.Mutex
	accesses  int64 // accesses delivered under this stripe's lock
	contended int64 // lock acquisitions that had to wait
	seen      int   // race-drain cursor for WithRaceHandler
	_         [32]byte
}

// shardMetrics caches the sharded path's obs handles (monitor.sharded.*
// namespace).
type shardMetrics struct {
	slow     *obs.Counter // accesses through the full-lock slow path
	inflight *obs.Gauge   // access runs currently inside the striped section
	peak     *obs.Gauge   // high-water mark of inflight
}

// WithShards enables lock-striped concurrent ingestion with n stripes.
// n <= 1 (the default) keeps the serial path, which is the one-stripe
// case: one lock, arrival-order delivery, race callbacks in report
// order. With n > 1, accesses to variables on different stripes are
// checked in parallel by the calling goroutines; the reported race set
// (variable, kind) is exactly the serial one, but report indices
// reflect a particular legal interleaving and WithRaceHandler callbacks
// are ordered only within a stripe.
//
// Sharding requires a detector that implements ShardedTool (FastTrack
// does), no stream validation (WithValidation must stay PolicyOff — the
// validator is inherently sequential), and no memory budget (its squeeze
// walks the serial layout's one stripe). NewMonitor panics on any of
// these conflicts: they are configuration errors.
func WithShards(n int) MonitorOption {
	return func(c *monitorConfig) { c.shards = n }
}

// enableSharding checks the striped path's requirements and registers
// its metrics at NewMonitor time; start then switches the tool and
// dispatcher to striped delivery.
func (m *Monitor) enableSharding(tool Tool) {
	n := len(m.stripes)
	if _, ok := tool.(rr.ShardedTool); !ok {
		panic(fmt.Sprintf("fasttrack: WithShards(%d): tool %q does not support sharded ingestion",
			n, tool.Name()))
	}
	if m.cfg.policy != PolicyOff {
		panic("fasttrack: WithShards is incompatible with WithValidation (the stream validator is sequential)")
	}
	if m.cfg.hints.MemoryBudget > 0 {
		panic("fasttrack: WithShards is incompatible with a memory budget")
	}
	m.sm = &shardMetrics{
		slow:     m.reg.Counter("monitor.sharded.slowPath"),
		inflight: m.reg.Gauge("monitor.sharded.inflight"),
		peak:     m.reg.Gauge("monitor.sharded.maxInflight"),
	}
	m.reg.Gauge("monitor.sharded.shards").Set(int64(n))
}

// batchPartition is the reusable scratch state for partitioning one
// access run by stripe: a stable counting sort over stripe indices, so
// same-variable accesses keep their relative order inside a stripe's
// segment.
type batchPartition struct {
	stripe []int32       // stripe of run[i]
	start  []int         // segment start offsets, one past the end at [nStripes]
	cursor []int         // scatter write cursors (start copy, consumed)
	events []trace.Event // run scattered into per-stripe segments
	pos    []int32       // position in the run of each scattered event
}

func (p *batchPartition) grow(nEvents, nStripes int) {
	if cap(p.stripe) < nEvents {
		p.stripe = make([]int32, nEvents)
		p.events = make([]trace.Event, nEvents)
		p.pos = make([]int32, nEvents)
	}
	p.stripe = p.stripe[:nEvents]
	p.events = p.events[:nEvents]
	p.pos = p.pos[:nEvents]
	if cap(p.start) < nStripes+1 {
		p.start = make([]int, nStripes+1)
		p.cursor = make([]int, nStripes)
	}
	p.start = p.start[:nStripes+1]
	p.cursor = p.cursor[:nStripes]
	clear(p.cursor)
}

var batchScratch = sync.Pool{New: func() any { return new(batchPartition) }}

// accessRun delivers one run of consecutive Read/Write events on the
// striped path: partition by stripe, then one lock acquisition (and one
// race-callback drain) per touched stripe instead of per event. A
// one-event run goes straight to its stripe. A run containing an access
// by a thread the detector has not materialized goes through exclusive,
// so the detector may grow its thread table. Runs are all-or-nothing:
// the only failure point is the closed check before any delivery.
func (m *Monitor) accessRun(run []trace.Event) error {
	// The watermark only grows, and thread states are never moved once
	// materialized, so a stale read here errs toward exclusive only.
	w := m.ensured.Load()
	for i := range run {
		if run[i].Tid < 0 || run[i].Tid >= w {
			if err := m.exclusive(run); err != nil {
				return err
			}
			m.sm.slow.Add(int64(len(run)))
			return nil
		}
	}
	m.mu.RLock()
	// The pipeline is released by Close; it may only be touched after the
	// closed check under the lock.
	if m.closed {
		m.mu.RUnlock()
		return ErrMonitorClosed
	}

	// The parallelism gauges are sampled (~1/64 of runs, decided by a
	// per-call predicate so the increment and decrement pair up): updating
	// a shared atomic on every run would reintroduce exactly the
	// cross-core cache-line traffic striping exists to avoid. The gauge's
	// own atomic is the single source of truth — each sampled run adds a
	// delta on entry and subtracts it on exit, so concurrent samples
	// cannot interleave a stale Set over a fresher count.
	sampled := run[0].Target&63 == 0
	if sampled {
		m.sm.peak.Max(m.sm.inflight.Add(1))
	}

	nStripes := len(m.stripes)
	base := m.disp.ReserveIndices(len(run))
	if len(run) == 1 {
		m.deliverSegment(rr.StripeOf(m.disp.MapVar(run[0].Target), nStripes), base, run, nil)
	} else {
		m.partition(base, run)
	}
	m.mu.RUnlock()

	if sampled {
		m.sm.inflight.Add(-1)
	}
	return nil
}

// partition delivers a multi-event access run stripe by stripe, in a
// stable order within each stripe, each event under the index base plus
// its position in the run. Caller holds the RWMutex in read mode.
func (m *Monitor) partition(base int, run []trace.Event) {
	nStripes := len(m.stripes)
	p := batchScratch.Get().(*batchPartition)
	p.grow(len(run), nStripes)
	same := true
	for i := range run {
		s := rr.StripeOf(m.disp.MapVar(run[i].Target), nStripes)
		p.stripe[i] = int32(s)
		p.cursor[s]++ // counts during this pass; rewritten to cursors below
		if s != int(p.stripe[0]) {
			same = false
		}
	}

	if same {
		// Common fast case (small batches, hot variables): the whole run
		// lands on one stripe, so deliver it in place without scattering.
		m.deliverSegment(int(p.stripe[0]), base, run, nil)
	} else {
		sum := 0
		for s := 0; s < nStripes; s++ {
			c := p.cursor[s]
			p.start[s] = sum
			p.cursor[s] = sum
			sum += c
		}
		p.start[nStripes] = len(run)
		for i := range run {
			s := p.stripe[i]
			p.events[p.cursor[s]] = run[i]
			p.pos[p.cursor[s]] = int32(i)
			p.cursor[s]++
		}
		for s := 0; s < nStripes; s++ {
			lo, hi := p.start[s], p.start[s+1]
			if lo == hi {
				continue
			}
			m.deliverSegment(s, base, p.events[lo:hi], p.pos[lo:hi])
		}
		// Drop event payload references (barrier Tids slices and the
		// like) so the pooled scratch does not pin them.
		clear(p.events)
	}
	batchScratch.Put(p)
}

// deliverSegment feeds one stripe's segment of an access run under that
// stripe's lock; base and pos give its event indices (AccessBatch).
// Caller holds the RWMutex in read mode.
func (m *Monitor) deliverSegment(s, base int, seg []trace.Event, pos []int32) {
	sl := &m.stripes[s]
	if !sl.TryLock() {
		sl.Lock()
		sl.contended++
	}
	sl.accesses += int64(len(seg))
	m.disp.AccessBatch(base, seg, pos)
	if m.onRace != nil {
		m.drainStripe(s)
	}
	sl.Unlock()
}

// drainStripe fires the race callback for stripe s's new warnings: on
// the serial path the tool's whole race list, on the striped path the
// stripe's own. Caller holds stripe lock s or the full write lock; the
// stripe's drain cursor is guarded by the same.
func (m *Monitor) drainStripe(s int) {
	var races []Report
	if len(m.stripes) == 1 {
		races = m.tool().Races()
	} else {
		// The dispatcher never swaps its Tool field under concurrent
		// delivery, so this is the detector even after a downgrade.
		races = m.disp.Tool.(rr.ShardedTool).StripeRaces(s)
	}
	sl := &m.stripes[s]
	for ; sl.seen < len(races); sl.seen++ {
		m.onRace(races[sl.seen])
	}
}

// publishShardMetricsLocked copies the stripe-confined tallies into the
// registry. Caller holds the full write lock (which orders it after all
// stripe-locked updates).
func (m *Monitor) publishShardMetricsLocked() {
	if len(m.stripes) == 1 {
		return
	}
	m.disp.SyncObs()
	var accesses, contended int64
	for i := range m.stripes {
		accesses += m.stripes[i].accesses
		contended += m.stripes[i].contended
	}
	m.reg.Gauge("monitor.sharded.stripedAccesses").Set(accesses)
	m.reg.Gauge("monitor.sharded.contended").Set(contended)
}

// resetShardMetricsLocked zeroes the monitor.sharded.* registry state
// that outlives the stripes themselves; without this a post-Reset
// Metrics() would report the previous run's striped work as current.
// Caller holds the full write lock.
func (m *Monitor) resetShardMetricsLocked() {
	m.sm.inflight.Set(0)
	m.sm.peak.Set(0)
	m.reg.Gauge("monitor.sharded.stripedAccesses").Set(0)
	m.reg.Gauge("monitor.sharded.contended").Set(0)
}

// Shards returns the number of ingestion stripes (1 in serial mode).
// The count is fixed at construction, so it stays correct (and
// lock-free) after Close.
func (m *Monitor) Shards() int { return len(m.stripes) }
