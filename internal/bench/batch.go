package bench

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"fasttrack"
	"fasttrack/trace"
)

// BatchReport is the batched-ingestion table: the throughput of
// Monitor.IngestBatch across batch sizes, serial and sharded, against
// the per-event Monitor.Ingest baseline on the same event stream. One
// producer feeds the monitor, so the table isolates the per-event
// lock/dispatch toll that batching amortizes rather than feeder
// contention (the shards table covers that axis).
type BatchReport struct {
	CPUs   int
	Events int
	Runs   int
	Rows   []BatchRow
}

// BatchRow is one (mode, batch size) cell. Batch == 0 is the per-event
// Ingest baseline; Speedup is relative to the same mode's baseline row
// (so the shards=1 and sharded sweeps are each self-normalized).
type BatchRow struct {
	Mode         string // "serial" or "sharded"
	Shards       int    // 1 in serial mode
	Batch        int    // events per IngestBatch; 0 = per-event Ingest
	ElapsedNs    int64
	EventsPerSec float64
	Speedup      float64
}

// batchWorkload builds the event stream the sweep replays: one thread
// sweeping write/read pairs over a working set large enough to spread
// across every stripe, with an acquire/release pair every ~1k accesses
// so the batch path's sync-barrier flush is part of what is measured.
func batchWorkload(events int) []trace.Event {
	const vars = 4096
	out := make([]trace.Event, 0, events)
	for i := 0; len(out) < events; i++ {
		x := uint64(i) % vars
		out = append(out, trace.Wr(1, x), trace.Rd(1, x))
		if i%512 == 511 {
			out = append(out, trace.Acq(1, vars+1), trace.Rel(1, vars+1))
		}
	}
	return out[:events]
}

// batchRun replays the workload through one monitor and times it.
func batchRun(shards, batch int, events []trace.Event) time.Duration {
	var opts []fasttrack.MonitorOption
	if shards > 1 {
		opts = append(opts, fasttrack.WithShards(shards))
	}
	m := fasttrack.NewMonitor(opts...)
	defer m.Close()
	// Materialize the producer thread up front so the sharded path never
	// needs its once-per-thread slow path mid-measurement.
	m.Fork(0, 1)
	t0 := time.Now()
	if batch <= 0 {
		for _, e := range events {
			m.Ingest(e)
		}
	} else {
		for i := 0; i < len(events); i += batch {
			m.IngestBatch(events[i:min(i+batch, len(events))])
		}
	}
	return time.Since(t0)
}

// Batch produces the batched-ingestion throughput table. Nil batchSizes
// defaults to {1, 8, 64, 512, 4096}; shards <= 1 defaults to 8 stripes
// for the sharded sweep; totalEvents <= 0 defaults to 400k scaled by
// cfg.Scale with a 50k floor.
func Batch(cfg Config, batchSizes []int, shards, totalEvents int) BatchReport {
	if len(batchSizes) == 0 {
		batchSizes = []int{1, 8, 64, 512, 4096}
	}
	if shards <= 1 {
		shards = 8
	}
	if totalEvents <= 0 {
		totalEvents = int(400_000 * cfg.Scale)
		if totalEvents < 50_000 {
			totalEvents = 50_000
		}
	}
	events := batchWorkload(totalEvents)
	rep := BatchReport{
		CPUs:   runtime.GOMAXPROCS(0),
		Events: len(events),
		Runs:   cfg.runs(),
	}
	for _, mode := range []struct {
		name   string
		shards int
	}{{"serial", 1}, {"sharded", shards}} {
		var baseline float64
		for _, batch := range append([]int{0}, batchSizes...) {
			best := time.Duration(0)
			for r := 0; r < cfg.runs(); r++ {
				el := batchRun(mode.shards, batch, events)
				if best == 0 || el < best {
					best = el
				}
			}
			row := BatchRow{
				Mode:         mode.name,
				Shards:       mode.shards,
				Batch:        batch,
				ElapsedNs:    best.Nanoseconds(),
				EventsPerSec: float64(len(events)) / best.Seconds(),
			}
			if batch == 0 {
				baseline = row.EventsPerSec
			}
			if baseline > 0 {
				row.Speedup = row.EventsPerSec / baseline
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// ArtifactRows flattens the table into rows, one workload
// "<mode>/<batch>" per cell.
func (rep BatchReport) ArtifactRows() []Row {
	return fieldRows("batch", rep.Rows, func(r BatchRow) string { return fmt.Sprintf("%s/%d", r.Mode, r.Batch) },
		"Shards", "Batch")
}

// FprintBatch renders the batched-ingestion throughput table.
func FprintBatch(w io.Writer, rep BatchReport) {
	fmt.Fprintf(w, "Batched ingestion throughput, %d events, best of %d, %d CPU(s)\n\n",
		rep.Events, rep.Runs, rep.CPUs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Mode\tShards\tBatch\tms\tevents/sec\tvs per-event")
	for _, r := range rep.Rows {
		batch := fmt.Sprint(r.Batch)
		if r.Batch == 0 {
			batch = "per-event"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.1f\t%.2fM\t%.2fx\n",
			r.Mode, r.Shards, batch,
			float64(r.ElapsedNs)/1e6, r.EventsPerSec/1e6, r.Speedup)
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(single producer; the table isolates the per-event lock and dispatch")
	fmt.Fprintln(w, " toll that IngestBatch amortizes — one serial-lock or stripe-lock")
	fmt.Fprintln(w, " acquisition per batch instead of per event)")
}
