// Package rt is the runtime shim linked into programs instrumented by
// fasttrack/instrument: the rewriter injects calls to this package at
// every shared-memory access and synchronization operation, and the
// shim turns them into the detector's event stream.
//
// The shim owns three jobs:
//
//   - identity: goroutines are mapped to dense thread ids (the
//     instrumented go statement records the fork edge; goroutines that
//     appear without one — the testing framework's, for example — are
//     adopted with a synthetic fork from the main thread, which can
//     only mask races, never invent them); memory addresses, locks,
//     channels and WaitGroups are mapped to dense per-namespace ids;
//   - batching: each goroutine buffers its memory accesses locally and
//     coalesces adjacent same-variable duplicates, flushing to the
//     serialized sink before every synchronization event it emits (a
//     buffered access may drift relative to OTHER goroutines' accesses
//     — which is a legal reordering, accesses only synchronize through
//     sync events — but never across its own sync events);
//   - delivery: events go to one of three sinks selected by
//     FASTTRACK_MODE — "trace" (default; append to the binary trace
//     file named by FASTTRACK_TRACE for offline analysis — what
//     racedetect run drives), "local" (in-process fasttrack.Monitor;
//     report written at exit to FASTTRACK_REPORT or stderr), or
//     "server" (stream to the racedetectd daemon at FASTTRACK_SERVER
//     via the client package).
//
// Every call names the goroutine it records for. An instrumented
// function body binds its goroutine's state once at entry (Self, or
// Begin in a go statement's wrapper) and passes it to each record:
// R(g, &x), W(g, &x), Acquire(g, &mu), g.ChanSend(ch) and the rest.
// A body always runs on one goroutine, so the goroutine id is looked
// up once per call rather than once per access.
package rt

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"fasttrack/trace"
)

// flushThreshold bounds a goroutine's local access buffer.
const flushThreshold = 256

// cacheBits sizes a goroutine's address→id cache (1<<cacheBits slots);
// varShardBits sizes the global variable table (1<<varShardBits shards).
const (
	cacheBits    = 8
	varShardBits = 6
)

// G is one goroutine's shim state. It is only touched by its own
// goroutine, with two exceptions: Shutdown, which runs after user
// goroutines are expected to have finished (stragglers lose buffered
// accesses, not correctness), and adoption, which flushes the main
// thread's buffer under lk.
type G struct {
	tid   int32
	gid   int64 // runtime goroutine id it is registered under
	lk    sync.Mutex
	buf   []trace.Event
	cache [1 << cacheBits]cacheSlot
}

// cacheSlot memoizes one address's variable id. The zero slot matches
// no access: the rewriter only passes addresses of live locations,
// which are never nil.
type cacheSlot struct {
	addr uintptr
	id   uint64
}

// varShard is one lock stripe of the variable table, the only
// authority on address→id; the goroutine caches are memos of it.
type varShard struct {
	mu  sync.Mutex
	ids map[uintptr]uint64
}

var (
	initOnce sync.Once
	sink     eventSink

	vars    [1 << varShardBits]varShard
	nextVar atomic.Uint64 // dense variable ids, in first-touch order

	goids sync.Map // goroutine id -> *G
	mainG *G       // tid 0: the goroutine that started the shim

	// mu serializes sync events and flushes into the sink, and guards
	// the thread counter and the sync-object namespaces.
	mu      sync.Mutex
	nextTid int32
	lockIDs map[uintptr]uint64
	volIDs  map[uintptr]uint64
	chanIDs map[uintptr]uint64
)

// goid returns the current goroutine's runtime id, parsed from the
// first stack line ("goroutine N [...]"). There is no public API for
// this; the parse is the standard fallback and costs about a
// microsecond (runtime.Stack formats a traceback). Only Self and Begin
// call it, once per instrumented function call.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// initShim sets up the sink from the environment on first use.
func initShim() {
	initOnce.Do(func() {
		s, err := newSink()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fasttrack/rt:", err)
			os.Exit(2)
		}
		start(s)
	})
}

// start installs s as the sink and registers the calling goroutine as
// the main thread, tid 0.
func start(s eventSink) {
	sink = s
	lockIDs = make(map[uintptr]uint64)
	volIDs = make(map[uintptr]uint64)
	chanIDs = make(map[uintptr]uint64)
	nextTid = 1
	mainG = register(0, goid())
}

// register creates the state of goroutine gid under thread id tid.
func register(tid int32, gid int64) *G {
	g := &G{tid: tid, gid: gid}
	goids.Store(g.gid, g)
	return g
}

// Boot initializes the shim and returns the finalizer the instrumented
// main defers: it flushes every goroutine's buffer, closes the sink,
// and emits the report (mode-dependent). Boot is also called by the
// generated TestMain.
func Boot() func() {
	initShim()
	return Shutdown
}

// Shutdown flushes all buffered events and finalizes the sink. Safe to
// call once; events arriving afterwards are dropped.
func Shutdown() {
	initShim()
	mu.Lock()
	goids.Range(func(_, v any) bool {
		v.(*G).flushLocked()
		return true
	})
	s := sink
	sink = nil
	mu.Unlock()
	if s != nil {
		if err := s.finish(); err != nil {
			fmt.Fprintln(os.Stderr, "fasttrack/rt:", err)
			os.Exit(2)
		}
	}
}

// Self returns the calling goroutine's state, adopting an unknown
// goroutine with a synthetic fork edge from the main thread (see the
// package comment). An instrumented function calls it once, at entry.
func Self() *G {
	initShim()
	id := goid()
	if v, ok := goids.Load(id); ok {
		return v.(*G)
	}
	mu.Lock()
	defer mu.Unlock()
	// The synthetic fork orders the main thread's accesses so far
	// before this goroutine, so they must reach the stream before it:
	// left in main's buffer, they would land after the fork and look
	// concurrent with this goroutine's.
	mainG.lk.Lock()
	mainG.flushLocked()
	mainG.lk.Unlock()
	g := register(nextTid, id)
	nextTid++
	g.emitLocked(trace.ForkOf(0, g.tid))
	return g
}

// Begin registers the calling goroutine under the thread id its parent
// forked for it and returns its state. The rewriter binds it at the top
// of every go statement's function, with a deferred End.
func Begin(tid int32) *G {
	initShim()
	return register(tid, goid())
}

// End flushes the goroutine's remaining buffered accesses and retires
// its registration.
func (g *G) End() {
	mu.Lock()
	g.flushLocked()
	mu.Unlock()
	goids.CompareAndDelete(g.gid, g)
}

// Fork allocates a thread id for a goroutine about to start and records
// the fork edge. The rewriter evaluates Fork in the parent, before the
// go statement, and passes the result to Begin inside the child.
func (g *G) Fork() int32 {
	mu.Lock()
	child := nextTid
	nextTid++
	g.emitLocked(trace.ForkOf(g.tid, child))
	mu.Unlock()
	return child
}

// flushLocked drains g's buffer into the sink. Caller holds mu.
func (g *G) flushLocked() {
	if len(g.buf) == 0 {
		return
	}
	if sink != nil {
		sink.events(g.buf)
	}
	g.buf = g.buf[:0]
}

// emitLocked flushes g's buffered accesses and then its sync events
// evs, as one serialized step: no other goroutine's sync event lands in
// between, and none of g's accesses drifts past its own sync event.
// Caller holds mu.
func (g *G) emitLocked(evs ...trace.Event) {
	g.buf = append(g.buf, evs...)
	g.flushLocked()
}

// R records a read of the location *p.
func R[T any](g *G, p *T) { g.access(trace.Read, uintptr(unsafe.Pointer(p))) }

// W records a write of the location *p.
func W[T any](g *G, p *T) { g.access(trace.Write, uintptr(unsafe.Pointer(p))) }

// access buffers one read/write event, coalescing an immediate
// duplicate (same kind, same variable: tight loops over one location).
func (g *G) access(k trace.Kind, addr uintptr) {
	id := g.varID(addr)
	if g == mainG {
		g.lk.Lock() // Self may flush main's buffer from another goroutine
	}
	full := g.buffer(k, id)
	if g == mainG {
		g.lk.Unlock()
	}
	if full {
		mu.Lock()
		g.flushLocked()
		mu.Unlock()
	}
}

// buffer appends one access unless it repeats the last one, and
// reports whether the buffer is full.
func (g *G) buffer(k trace.Kind, id uint64) bool {
	if n := len(g.buf); n > 0 && g.buf[n-1].Kind == k && g.buf[n-1].Target == id {
		return false
	}
	g.buf = append(g.buf, trace.Event{Kind: k, Tid: g.tid, Target: id})
	return len(g.buf) >= flushThreshold
}

// addrHash spreads an address over the cache slots and table shards.
func addrHash(addr uintptr) uint64 { return uint64(addr) * 0x9E3779B97F4A7C15 }

// cacheSlotOf returns the cache slot index for addr.
func cacheSlotOf(addr uintptr) uint64 { return addrHash(addr) >> (64 - cacheBits) }

// varID returns the dense id of the variable at addr: from g's
// direct-mapped cache on a hit, else from the shared table (which
// assigns the id on first touch), refilling the slot.
func (g *G) varID(addr uintptr) uint64 {
	s := &g.cache[cacheSlotOf(addr)]
	if s.addr != addr {
		*s = cacheSlot{addr: addr, id: tableID(addr)}
	}
	return s.id
}

// tableID looks addr up in its shard of the variable table, assigning
// the next dense id on first touch.
func tableID(addr uintptr) uint64 {
	sh := &vars[addrHash(addr)>>(64-cacheBits-varShardBits)&(1<<varShardBits-1)]
	sh.mu.Lock()
	id, ok := sh.ids[addr]
	if !ok {
		if sh.ids == nil {
			sh.ids = make(map[uintptr]uint64)
		}
		id = nextVar.Add(1) - 1
		sh.ids[addr] = id
	}
	sh.mu.Unlock()
	return id
}

// syncID assigns stable dense ids per sync namespace. Caller holds mu.
func syncID(tab map[uintptr]uint64, p uintptr) uint64 {
	id, ok := tab[p]
	if !ok {
		id = uint64(len(tab))
		tab[p] = id
	}
	return id
}

// lockID is the lock id of the object at p. Caller holds mu.
func lockID[T any](p *T) uint64 { return syncID(lockIDs, uintptr(unsafe.Pointer(p))) }

// volID is one of the two volatile ids of the object at p (the RWMutex
// reader/writer pair, the WaitGroup latch). Caller holds mu.
func volID[T any](p *T, side uint64) uint64 {
	return syncID(volIDs, uintptr(unsafe.Pointer(p)))<<1 | side
}

// Acquire records that g acquired the mutex at p. The rewriter places
// it after the real Lock returns.
func Acquire[T any](g *G, p *T) {
	mu.Lock()
	g.emitLocked(trace.Acq(g.tid, lockID(p)))
	mu.Unlock()
}

// Release records that g is releasing the mutex at p. The rewriter
// places it before the real Unlock.
func Release[T any](g *G, p *T) {
	mu.Lock()
	g.emitLocked(trace.Rel(g.tid, lockID(p)))
	mu.Unlock()
}

// RAcquire records a read-lock acquisition of the RWMutex at p: the
// reader is ordered after the last write-unlock (modeled as a volatile
// read of the writer-release volatile). Placed after the real RLock.
func RAcquire[T any](g *G, p *T) {
	mu.Lock()
	g.emitLocked(trace.VRd(g.tid, volID(p, 0)))
	mu.Unlock()
}

// RRelease records a read-unlock of the RWMutex at p: later write-locks
// are ordered after it (a volatile write of the reader-release
// volatile). Placed before the real RUnlock.
func RRelease[T any](g *G, p *T) {
	mu.Lock()
	g.emitLocked(trace.VWr(g.tid, volID(p, 1)))
	mu.Unlock()
}

// AcquireRW records a write-lock acquisition of the RWMutex at p: mutual
// exclusion plus ordering after every reader's unlock. Placed after the
// real Lock.
func AcquireRW[T any](g *G, p *T) {
	mu.Lock()
	g.emitLocked(trace.Acq(g.tid, lockID(p)), trace.VRd(g.tid, volID(p, 0)), trace.VRd(g.tid, volID(p, 1)))
	mu.Unlock()
}

// ReleaseRW records a write-unlock of the RWMutex at p. Placed before
// the real Unlock.
func ReleaseRW[T any](g *G, p *T) {
	mu.Lock()
	g.emitLocked(trace.VWr(g.tid, volID(p, 0)), trace.Rel(g.tid, lockID(p)))
	mu.Unlock()
}

// WGDone records a WaitGroup count-down at p: a volatile write every
// later Wait is ordered after (the paper's latch model — exact for the
// final Wait). Placed before the real Done.
func WGDone[T any](g *G, p *T) {
	mu.Lock()
	g.emitLocked(trace.VWr(g.tid, volID(p, 0)))
	mu.Unlock()
}

// WGWait records that a Wait on the WaitGroup at p returned. Placed
// after the real Wait.
func WGWait[T any](g *G, p *T) {
	mu.Lock()
	g.emitLocked(trace.VRd(g.tid, volID(p, 0)))
	mu.Unlock()
}

// OnceDo records a sync.Once.Do completion as an acquire/release pair
// on a dedicated lock: every Do is ordered after every earlier Do,
// which covers the initializer-publication edge (and over-orders
// observers among themselves — conservative, never a false alarm).
// Placed after the real Do returns.
func OnceDo[T any](g *G, p *T) {
	mu.Lock()
	l := lockID(p)
	g.emitLocked(trace.Acq(g.tid, l), trace.Rel(g.tid, l))
	mu.Unlock()
}

// chanEvent emits one channel event for ch, whose identity and
// capacity come from reflection (channel operations are off the access
// path).
func (g *G) chanEvent(ev func(t int32, c uint64, capacity int32) trace.Event, ch any) {
	v := reflect.ValueOf(ch)
	mu.Lock()
	g.emitLocked(ev(g.tid, syncID(chanIDs, v.Pointer()), int32(v.Cap())))
	mu.Unlock()
}

// ChanSend records a send on ch. The rewriter places it before the real
// send, so the k-th send event precedes the k-th receive event in the
// serialized stream (a blocked send has already recorded its event).
func (g *G) ChanSend(ch any) { g.chanEvent(trace.ChSend, ch) }

// ChanRecv records a receive from ch. Placed after the real receive
// completes. Select-statement sends are also recorded post-operation
// (the rewriter cannot interpose before a select commits), which can
// order a chrecv before its chsend in the stream; the detector's
// accumulator fallback keeps that sound.
func (g *G) ChanRecv(ch any) { g.chanEvent(trace.ChRecv, ch) }

// ChanClose records a close of ch. Placed before the real close.
func (g *G) ChanClose(ch any) { g.chanEvent(trace.ChClose, ch) }
