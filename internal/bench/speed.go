package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"text/tabwriter"
	"time"

	"fasttrack/internal/core"
	"fasttrack/trace"
)

// SpeedReport is the raw-speed table: serial per-event throughput of
// the current detector against the frozen pre-refactor baseline
// (speed_baseline.go), measured in the same process on the same event
// streams. The per-workload Speedup columns and their geometric mean
// are therefore host-independent ratios; the gate asserts
// GeomeanSpeedup >= 2 at full scale.
type SpeedReport struct {
	CPUs           int
	Runs           int
	Rows           []SpeedRow
	GeomeanSpeedup float64
}

// SpeedRow is one workload's measurement, best-of-runs per side.
type SpeedRow struct {
	Workload           string
	Events             int
	BaselineNsPerEvent float64
	NsPerEvent         float64
	Speedup            float64
}

// speedWorkloads builds the event streams. Each models a regime of the
// paper's benchmark suite at realistic scale: millions of live shadow
// locations, field-clustered accesses (rr.FieldsPerObject contiguous
// ids per object), and synchronization at the low trace frequencies
// Table 1 reports (accesses are >96% of events) rather than as a
// synthetic sync-only stream. At this scale shadow memory traffic —
// bytes moved per access — dominates per-event cost, which is exactly
// the axis the struct-of-arrays refactor targets; a hot-L1 microloop
// would instead measure the shared dispatch overhead both detectors pay
// identically.
func speedWorkloads(scale float64) []struct {
	name   string
	events []trace.Event
} {
	n := func(base int) int {
		k := int(float64(base) * scale)
		if k < base/10 {
			k = base / 10
		}
		return k
	}
	const fields = 8 // rr.FieldsPerObject: ids cluster as real objects' fields do
	var out []struct {
		name   string
		events []trace.Event
	}
	add := func(name string, evs []trace.Event) {
		out = append(out, struct {
			name   string
			events []trace.Event
		}{name, evs})
	}

	// same-epoch: one thread re-reading a large object graph between
	// synchronizations — the >96% fast-path regime at a size where the
	// read epochs' density (8 per cache line against the old layout's
	// 1.33 variables) decides throughput. Pass 1 writes every field
	// (first touch), pass 2 re-reads (exclusive), passes 3-4 hit
	// [FT READ SAME EPOCH] on every access and touch only r[].
	{
		objs := n(250_000)
		evs := make([]trace.Event, 0, 6*objs*fields)
		for o := 0; o < objs; o++ {
			for f := 0; f < fields; f++ {
				evs = append(evs, trace.Wr(1, uint64(o*fields+f)))
			}
		}
		for pass := 0; pass < 5; pass++ {
			for o := 0; o < objs; o++ {
				for f := 0; f < fields; f++ {
					evs = append(evs, trace.Rd(1, uint64(o*fields+f)))
				}
			}
		}
		add("same-epoch", evs)
	}

	// sweep: a wide space re-walked with the epoch advanced between
	// passes, so every access takes the exclusive slow rules — the
	// regime that measures the full R/W-epoch update cost at scale
	// (object allocation churn, init-then-scan phases).
	{
		vars := n(800_000)
		evs := make([]trace.Event, 0, 3*(2*vars+1))
		for pass := 0; pass < 3; pass++ {
			evs = append(evs, trace.Rel(1, 1<<20))
			for x := 0; x < vars; x++ {
				evs = append(evs, trace.Wr(1, uint64(x)), trace.Rd(1, uint64(x)))
			}
		}
		add("sweep", evs)
	}

	// read-shared: four threads over a large read-mostly table
	// (promoted read histories), the [FT READ SHARED] regime: one
	// in-place vector-clock component store per access. Readers' clocks
	// advance between rounds so the stores are not idempotent.
	{
		vars := n(500_000)
		evs := make([]trace.Event, 0, vars+8*vars+64)
		evs = append(evs, trace.ForkOf(0, 1), trace.ForkOf(0, 2), trace.ForkOf(0, 3), trace.ForkOf(0, 4))
		for x := 0; x < vars; x++ {
			evs = append(evs, trace.Wr(0, uint64(x)))
		}
		evs = append(evs, trace.Rel(0, 9))
		for t := int32(1); t <= 4; t++ {
			evs = append(evs, trace.Acq(t, 9))
		}
		for round := 0; round < 2; round++ {
			for t := int32(1); t <= 4; t++ {
				for x := 0; x < vars; x++ {
					evs = append(evs, trace.Rd(t, uint64(x)))
				}
				// Advance the reader's epoch so next round's component
				// stores carry new clocks.
				evs = append(evs, trace.Rel(t, uint64(20+t)))
			}
		}
		add("read-shared", evs)
	}

	// first-touch: every access hits a fresh location — the shadow
	// growth regime of allocation-heavy phases. The old layout appends a
	// 48-byte record per variable (with a read-vector pointer the
	// collector scans on every cycle); the new one appends two epochs
	// into pointer-free arrays.
	{
		vars := n(3_000_000)
		evs := make([]trace.Event, 0, vars)
		for x := 0; x < vars; x++ {
			evs = append(evs, trace.Wr(1, uint64(x)))
		}
		add("first-touch", evs)
	}

	// mixed: two threads working disjoint object ranges with
	// lock-protected phases — the end-to-end mix of Table 1: ~45%
	// same-epoch hits, ~55% exclusive updates, synchronization at under
	// 1% of events, over a shadow space too large for caches to hide
	// the layout.
	{
		objsPer := n(100_000)
		evs := make([]trace.Event, 0, 2*2*objsPer*(fields+1)+4*objsPer/16)
		evs = append(evs, trace.ForkOf(0, 1), trace.ForkOf(0, 2))
		for pass := 0; pass < 2; pass++ {
			for j := 0; j < objsPer; j++ {
				for t := int32(1); t <= 2; t++ {
					base := uint64((int(t-1)*objsPer + j) * fields)
					evs = append(evs,
						trace.Wr(t, base), trace.Rd(t, base+1), trace.Rd(t, base+2), trace.Rd(t, base+3),
						trace.Rd(t, base), trace.Rd(t, base+1), trace.Rd(t, base+2), trace.Rd(t, base+3),
						trace.Rd(t, base))
					if j%64 == 63 {
						m := uint64(4096 + (j/64)%1024)
						evs = append(evs, trace.Acq(t, m), trace.Rel(t, m))
					}
				}
			}
		}
		add("mixed", evs)
	}
	return out
}

// speedTimeBaseline and speedTimeCurrent replay evs through a fresh
// detector with direct concrete-type calls — no interface or method
// value indirection, which would add identical overhead to both sides
// and dilute the measured ratio.
func speedTimeBaseline(evs []trace.Event) time.Duration {
	d := newSpeedBaseline()
	t0 := time.Now()
	for i, e := range evs {
		d.HandleEvent(i, e)
	}
	return time.Since(t0)
}

func speedTimeCurrent(evs []trace.Event) time.Duration {
	d := core.New(0, 0)
	t0 := time.Now()
	for i, e := range evs {
		d.HandleEvent(i, e)
	}
	return time.Since(t0)
}

// Speed produces the raw-speed table. Both detectors are concrete types
// fed through direct loops (no Monitor, no interface dispatch), so the
// ratio isolates the shadow-storage layout and allocation behavior.
// Before timing, each workload is checked for race-report equivalence
// between the two detectors — a baseline that diverges would make the
// ratio meaningless.
func Speed(cfg Config) (SpeedReport, error) {
	rep := SpeedReport{
		CPUs: runtime.GOMAXPROCS(0),
		Runs: cfg.runs(),
	}
	for _, w := range speedWorkloads(cfg.Scale) {
		// Equivalence check (untimed).
		bl := newSpeedBaseline()
		cur := core.New(0, 0)
		for i, e := range w.events {
			bl.HandleEvent(i, e)
			cur.HandleEvent(i, e)
		}
		if b, c := len(bl.Races()), len(cur.Races()); b != c {
			return rep, fmt.Errorf("speed workload %q: baseline reports %d races, current %d", w.name, b, c)
		}

		best := func(once func([]trace.Event) time.Duration) time.Duration {
			var bestEl time.Duration
			for r := 0; r < cfg.runs(); r++ {
				if el := once(w.events); bestEl == 0 || el < bestEl {
					bestEl = el
				}
			}
			return bestEl
		}
		blEl := best(speedTimeBaseline)
		curEl := best(speedTimeCurrent)
		row := SpeedRow{
			Workload:           w.name,
			Events:             len(w.events),
			BaselineNsPerEvent: float64(blEl.Nanoseconds()) / float64(len(w.events)),
			NsPerEvent:         float64(curEl.Nanoseconds()) / float64(len(w.events)),
		}
		row.Speedup = row.BaselineNsPerEvent / row.NsPerEvent
		rep.Rows = append(rep.Rows, row)
	}
	g := 1.0
	for _, r := range rep.Rows {
		g *= r.Speedup
	}
	rep.GeomeanSpeedup = math.Pow(g, 1/float64(len(rep.Rows)))
	return rep, nil
}

// ArtifactRows flattens the table into rows, one workload per event
// stream plus the workload "geomean" holding the geometric-mean speedup.
func (rep SpeedReport) ArtifactRows() []Row {
	rows := fieldRows("speed", rep.Rows, func(r SpeedRow) string { return r.Workload })
	return append(rows, Row{Table: "speed", Workload: "geomean", Metric: "speedup", Value: rep.GeomeanSpeedup})
}

// FprintSpeed renders the raw-speed table.
func FprintSpeed(w io.Writer, rep SpeedReport) {
	fmt.Fprintf(w, "Serial per-event throughput vs frozen pre-refactor baseline, best of %d, %d CPU(s)\n\n",
		rep.Runs, rep.CPUs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Workload\tEvents\tbaseline ns/ev\tns/ev\tspeedup")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.2fx\n",
			r.Workload, r.Events, r.BaselineNsPerEvent, r.NsPerEvent, r.Speedup)
	}
	tw.Flush()
	fmt.Fprintf(w, "\ngeomean speedup: %.2fx\n", rep.GeomeanSpeedup)
	fmt.Fprintln(w, "(same process, same streams: the ratio isolates the struct-of-arrays")
	fmt.Fprintln(w, " shadow layout, slab pools and zero-alloc fast paths of DESIGN.md §13)")
}
