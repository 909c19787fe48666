package rt

import (
	"os"
	"sync"
	"testing"
	"unsafe"

	"fasttrack/trace"
)

// recorder is the sink the tests install. Like every sink it is called
// under mu; it keeps the stream while keep is set.
type recorder struct {
	keep bool
	evs  []trace.Event
}

func (s *recorder) events(evs []trace.Event) {
	if s.keep {
		s.evs = append(s.evs, evs...)
	}
}

func (s *recorder) finish() error { return nil }

var rec = &recorder{keep: true}

// TestMain starts the shim on the recorder: the test binary's main
// goroutine is the main thread, and every test runs on a goroutine the
// shim adopts.
func TestMain(m *testing.M) {
	initOnce.Do(func() { start(rec) })
	os.Exit(m.Run())
}

// stream returns a copy of the events recorded so far.
func stream() []trace.Event {
	mu.Lock()
	defer mu.Unlock()
	return append([]trace.Event(nil), rec.evs...)
}

// discard stops recording until the returned function runs.
func discard() (restore func()) {
	mu.Lock()
	rec.keep = false
	mu.Unlock()
	return func() {
		mu.Lock()
		rec.keep = true
		mu.Unlock()
	}
}

// flush drains g's buffer into the sink, as its next sync event would.
func flush(g *G) {
	mu.Lock()
	g.flushLocked()
	mu.Unlock()
}

// onGoroutine runs f on a new goroutine and waits for it.
func onGoroutine(f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	<-done
}

// idOf records one read of *p by g and returns the variable id the
// stream names for it.
func idOf[T any](g *G, p *T) uint64 {
	flush(g)
	R(g, p)
	flush(g)
	evs := stream()
	return evs[len(evs)-1].Target
}

func addr[T any](p *T) uintptr { return uintptr(unsafe.Pointer(p)) }

func TestIDsStableAcrossGoroutinesAndSlotCollisions(t *testing.T) {
	cells := new([4096]int64)
	a, b := &cells[0], (*int64)(nil)
	for i := 1; i < len(cells) && b == nil; i++ {
		if cacheSlotOf(addr(&cells[i])) == cacheSlotOf(addr(a)) {
			b = &cells[i]
		}
	}
	if b == nil {
		t.Fatal("no two cells share a cache slot")
	}
	g := Self()
	ida := idOf(g, a)
	idb := idOf(g, b) // evicts a from the slot
	if ida == idb {
		t.Fatalf("distinct addresses share id %d", ida)
	}
	if got := idOf(g, a); got != ida {
		t.Fatalf("a after eviction: id %d, want %d", got, ida)
	}
	if got := idOf(g, b); got != idb {
		t.Fatalf("b after eviction: id %d, want %d", got, idb)
	}
	onGoroutine(func() {
		h := Self()
		if h == g {
			t.Error("two goroutines share one state")
		}
		if got := idOf(h, b); got != idb {
			t.Errorf("b on another goroutine: id %d, want %d", got, idb)
		}
		if got := idOf(h, a); got != ida {
			t.Errorf("a on another goroutine: id %d, want %d", got, ida)
		}
	})
}

func TestDistinctGoroutinesDistinctTids(t *testing.T) {
	const n = 8
	parent := Self()
	tids := make(chan int32, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func() { // adopted
			defer wg.Done()
			tids <- Self().tid
		}()
		go func(tid int32) { // forked
			defer wg.Done()
			g := Begin(tid)
			defer g.End()
			tids <- Self().tid
		}(parent.Fork())
	}
	wg.Wait()
	close(tids)
	seen := map[int32]bool{0: true, parent.tid: true}
	for tid := range tids {
		if seen[tid] {
			t.Fatalf("tid %d given twice", tid)
		}
		seen[tid] = true
	}
}

func TestAdoptionForksOnce(t *testing.T) {
	before := len(stream())
	var g *G
	onGoroutine(func() {
		g = Self()
		if Self() != g {
			t.Error("a second Self returned another state")
		}
		var x int
		W(g, &x)
		flush(g)
	})
	forks := 0
	for _, e := range stream()[before:] {
		if e.Kind == trace.Fork && e.Target == uint64(g.tid) {
			forks++
			if e.Tid != 0 {
				t.Errorf("synthetic fork from tid %d, want the main thread", e.Tid)
			}
		}
		if e.Tid == g.tid && forks == 0 {
			t.Errorf("%v precedes the adoption fork", e)
		}
	}
	if forks != 1 {
		t.Fatalf("%d forks of the adopted goroutine, want 1", forks)
	}

	// A goroutine registered by Begin is not adopted again.
	parent := Self()
	tid := parent.Fork()
	onGoroutine(func() {
		c := Begin(tid)
		defer c.End()
		if Self() != c {
			t.Error("Self after Begin returned another state")
		}
	})
	forks = 0
	for _, e := range stream() {
		if e.Kind == trace.Fork && e.Target == uint64(tid) {
			forks++
		}
	}
	if forks != 1 {
		t.Fatalf("%d forks of the begun goroutine, want 1 (its parent's)", forks)
	}
}

// TestAdoptionFlushesMain: the synthetic fork orders the main thread's
// earlier accesses before the adopted goroutine, so they must precede
// it in the stream even while they sit in main's buffer.
func TestAdoptionFlushesMain(t *testing.T) {
	var x int
	W(mainG, &x) // the main goroutine is parked in m.Run
	id := mainG.cache[cacheSlotOf(addr(&x))].id
	var g *G
	onGoroutine(func() { g = Self() })
	write, fork := -1, -1
	for i, e := range stream() {
		switch {
		case e.Kind == trace.Write && e.Tid == 0 && e.Target == id:
			write = i
		case e.Kind == trace.Fork && e.Target == uint64(g.tid):
			fork = i
		}
	}
	if write < 0 || fork < 0 || write > fork {
		t.Fatalf("main's write at %d, adoption fork at %d: want the write first", write, fork)
	}
}

func TestFlushBeforeOwnSync(t *testing.T) {
	g := Self()
	flush(g)
	before := len(stream())
	var x int
	var m sync.Mutex
	W(g, &x)
	if n := len(stream()); n != before {
		t.Fatalf("an access reached the sink before any sync event (%d events)", n-before)
	}
	Acquire(g, &m)
	evs := stream()[before:]
	if len(evs) != 2 || evs[0].Kind != trace.Write || evs[1].Kind != trace.Acquire ||
		evs[0].Tid != g.tid || evs[1].Tid != g.tid {
		t.Fatalf("stream after the acquire: %v, want the write then the acquire", evs)
	}
}

// TestAccessAllocatesNothing: a steady-state access that hits the
// goroutine's cache allocates nothing, flushes included.
func TestAccessAllocatesNothing(t *testing.T) {
	defer discard()()
	g := Self()
	x, y := new(int), new(int)
	for i := 0; i < flushThreshold; i++ { // grow the buffer, fill the cache
		R(g, x)
		R(g, y)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		R(g, x)
		W(g, x)
		R(g, y)
		W(g, y)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per 4 accesses, want 0", allocs)
	}
}

// BenchmarkAccess is the shim's per-access cost on the cache-hit path:
// no two consecutive accesses coalesce, so every one is buffered, and
// the flushes into a discarding sink are included.
func BenchmarkAccess(b *testing.B) {
	defer discard()()
	g := Self()
	cells := new([64]int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := &cells[i&63]; i&1 == 0 {
			R(g, p)
		} else {
			W(g, p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// BenchmarkSelf is the per-call cost of binding a goroutine's state:
// the goroutine id parse plus the registry lookup.
func BenchmarkSelf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Self()
	}
}
