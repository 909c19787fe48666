package bench

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"fasttrack/internal/core"
	"fasttrack/trace"
)

// FidelityReport is the sampling-tier table: the per-event throughput
// of the FastTrack detector across sampling rates on a
// vector-clock-heavy workload, with the detection probability each rate
// buys. It is the cost/coverage curve behind racedetectd's fidelity
// ladder (full → sampled → coarse → shed), so the gate on it is what
// keeps "degrade under pressure" a real throughput lever rather than
// an aspiration.
type FidelityReport struct {
	CPUs    int
	Threads int
	Vars    int
	Events  int
	Runs    int
	Rows    []FidelityRow
}

// FidelityRow is one sampling rate. Speedup is relative to the rate-1.0
// row; DetectionProbability is the analyzed fraction of offered
// accesses as reported by the detector itself.
type FidelityRow struct {
	Rate                 float64
	ElapsedNs            int64
	EventsPerSec         float64
	Speedup              float64
	DetectionProbability float64
	Races                int
}

// fidelityWorkload builds a race-free, vector-clock-heavy stream. Every
// phase, each variable is read by two rotating threads — driving it
// through the read-exclusive → read-shared transition, which allocates
// and populates an O(threads) read vector clock — then a barrier orders
// the phase and one thread rewrites the region (the O(threads)
// write-shared comparison), collapsing every variable back to an
// exclusive epoch so the next phase pays the transitions again. Two
// reads and one write per variable per phase keeps the O(threads) work
// per access maximal; the region is large so the unskippable barriers
// (sync is never sampled) are amortized to noise. This is FastTrack's
// most expensive steady state — the workload sampling has the most to
// win on — while the phase ordering keeps it race-free so the timed
// runs do not degenerate into flagged-variable short-circuits.
func fidelityWorkload(threads, vars, events int) []trace.Event {
	out := make([]trace.Event, 0, events+4*vars)
	tids := make([]int32, threads)
	for i := range tids {
		tids[i] = int32(i + 1)
		out = append(out, trace.ForkOf(0, tids[i]))
	}
	const barrierID = 1 << 40 // clear of the variable region
	for phase := 0; len(out) < events; phase++ {
		for v := 0; v < vars; v++ {
			out = append(out,
				trace.Rd(tids[(phase+v)%threads], uint64(v)),
				trace.Rd(tids[(phase+v+1)%threads], uint64(v)))
		}
		out = append(out, trace.Barrier(barrierID, tids...))
		for v := 0; v < vars; v++ {
			out = append(out, trace.Wr(tids[phase%threads], uint64(v)))
		}
		out = append(out, trace.Barrier(barrierID, tids...))
	}
	return out
}

// fidelityRun replays the workload through a fresh detector at one
// sampling rate and times the event loop.
func fidelityRun(threads int, rate float64, events []trace.Event) (time.Duration, *core.Detector) {
	d := core.New(threads+1, 0)
	d.SetSamplingRate(rate)
	t0 := time.Now()
	for i, e := range events {
		d.HandleEvent(i, e)
	}
	return time.Since(t0), d
}

// Fidelity produces the sampling-rate throughput table. Nil rates
// defaults to {1, 0.5, 0.25, 0.1, 0.01, 0}; threads <= 0 defaults to
// 256 (the O(threads) vector-clock transitions are the cost sampling
// avoids, so the stress population is deliberately large); totalEvents
// <= 0 defaults to 300k scaled by cfg.Scale with a 50k floor.
func Fidelity(cfg Config, rates []float64, threads, totalEvents int) FidelityReport {
	if len(rates) == 0 {
		rates = []float64{1, 0.5, 0.25, 0.1, 0.01, 0}
	}
	if threads <= 0 {
		threads = 256
	}
	if totalEvents <= 0 {
		totalEvents = int(300_000 * cfg.Scale)
		if totalEvents < 50_000 {
			totalEvents = 50_000
		}
	}
	const vars = 8192
	events := fidelityWorkload(threads, vars, totalEvents)
	rep := FidelityReport{
		CPUs:    runtime.GOMAXPROCS(0),
		Threads: threads,
		Vars:    vars,
		Events:  len(events),
		Runs:    cfg.runs(),
	}
	var baseline float64
	for _, rate := range rates {
		var (
			best time.Duration
			last *core.Detector
		)
		for r := 0; r < cfg.runs(); r++ {
			el, d := fidelityRun(threads, rate, events)
			if best == 0 || el < best {
				best = el
			}
			last = d
		}
		st := last.Stats()
		row := FidelityRow{
			Rate:                 rate,
			ElapsedNs:            best.Nanoseconds(),
			EventsPerSec:         float64(len(events)) / best.Seconds(),
			DetectionProbability: st.DetectionProbability(),
			Races:                len(last.Races()),
		}
		if rate == 1 {
			baseline = row.EventsPerSec
		}
		if baseline > 0 {
			row.Speedup = row.EventsPerSec / baseline
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// ArtifactRows flattens the table into rows, one workload per rate.
func (rep FidelityReport) ArtifactRows() []Row {
	return fieldRows("fidelity", rep.Rows, func(r FidelityRow) string { return fmt.Sprint(r.Rate) }, "Rate")
}

// FprintFidelity renders the sampling-rate throughput table.
func FprintFidelity(w io.Writer, rep FidelityReport) {
	fmt.Fprintf(w, "Sampling-tier throughput, %d events, %d threads, %d vars, best of %d, %d CPU(s)\n\n",
		rep.Events, rep.Threads, rep.Vars, rep.Runs, rep.CPUs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Rate\tms\tevents/sec\tvs full\tdetection prob\traces")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%.3g\t%.1f\t%.2fM\t%.2fx\t%.3f\t%d\n",
			r.Rate, float64(r.ElapsedNs)/1e6, r.EventsPerSec/1e6,
			r.Speedup, r.DetectionProbability, r.Races)
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(read-shared heavy, race-free workload; a sampled-out variable costs")
	fmt.Fprintln(w, " one hash and a counter, so the rate is also roughly the fraction of")
	fmt.Fprintln(w, " full-fidelity cost paid — detection probability is what it buys)")
}
