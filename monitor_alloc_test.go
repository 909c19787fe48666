// The race detector makes sync.Pool drop a random share of Puts, so the
// striped batch path's pooled scratch allocates under -race; the CI
// zero-alloc step runs this test without it.

//go:build !race

package fasttrack_test

import (
	"fmt"
	"testing"

	"fasttrack"
	"fasttrack/trace"
)

// TestMonitorIngestAllocatesNothing pins the Monitor's share of the
// zero-allocation contract (DESIGN.md §13): once the acting thread, the
// variables and the lock exist, Ingest of a read or a write and an
// IngestBatch mixing accesses with an acquire/release pair must not touch
// the Go allocator, on the serial path and on the striped one.
func TestMonitorIngestAllocatesNothing(t *testing.T) {
	for _, shards := range []int{1, 4} {
		mode := fmt.Sprintf("%d-stripe", shards)
		m := fasttrack.NewMonitor(fasttrack.WithShards(shards))
		batch := []trace.Event{
			trace.Rd(0, 5), trace.Wr(0, 5),
			trace.Acq(0, 9), trace.Wr(0, 6), trace.Rd(0, 7), trace.Rel(0, 9),
			trace.Rd(0, 6), trace.Wr(0, 7),
		}
		// Warm up: materialize thread 0, variables 5-7 and lock 9.
		if _, err := m.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		read, write := trace.Rd(0, 5), trace.Wr(0, 5)
		for _, c := range []struct {
			path string
			f    func()
		}{
			{"Ingest read", func() { m.Ingest(read) }},
			{"Ingest write", func() { m.Ingest(write) }},
			{"IngestBatch", func() { m.IngestBatch(batch) }},
		} {
			if n := testing.AllocsPerRun(200, c.f); n != 0 {
				t.Errorf("%s %s: %.1f allocs per call, want 0", mode, c.path, n)
			}
		}
		if len(m.Races()) != 0 {
			t.Fatalf("%s: single-thread workload reported races: %v", mode, m.Races())
		}
	}
}
