package bench

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// ChanReport is the channel-HB table: FastTrack's per-event cost and
// race precision on channel-heavy workloads, the first-class
// chsend/chrecv rules against the legacy volatile encoding (one
// volatile per channel, send = release, recv = acquire) that
// syncmodel.Channel used before the channel trace kinds existed. The
// two traces per row are identical except for the channel events, so
// the cost ratio isolates the encoding and the race columns show what
// each encoding's happens-before admits.
type ChanReport struct {
	CPUs int
	Runs int
	Rows []ChanRow
}

// ChanRow compares one workload under the two encodings. SeededRaces
// is the ground truth: the native rules must report exactly that many
// (one per slack cell), while the volatile encoding's over-ordering
// (every receive after every preceding send) suppresses them all.
// CostRatio is native per-event time over volatile per-event time.
type ChanRow struct {
	Workload             string
	Events               int
	SeededRaces          int
	NativeNs             int64
	NativeEventsPerSec   float64
	NativeRaces          int
	VolatileNs           int64
	VolatileEventsPerSec float64
	VolatileRaces        int
	CostRatio            float64
}

// chanProfiles builds the rows: each channel idiom isolated, then the
// tracegen "chan" mix. events is the per-row budget; the slack row is
// capped well below it because every seeded race is a distinct
// variable and the row exists for the precision columns, not
// throughput.
func chanProfiles(events int) []sim.ChanProfile {
	const pairs = 4
	slack := events / (6 * pairs)
	if slack > 256 {
		slack = 256
	}
	mix := sim.ChanMix()
	mix.Name = "mix"
	return []sim.ChanProfile{
		{Name: "handoff", Pairs: pairs, Handoffs: events / (6 * pairs)},
		{Name: "ring", Pairs: pairs, RingCap: 8, RingOps: events / (7 * pairs)},
		{Name: "slack", Pairs: pairs, SlackRaces: slack},
		mix,
	}
}

// chanRun replays the trace through a fresh detector and returns the
// elapsed time and the number of races reported.
func chanRun(tr trace.Trace) (time.Duration, int) {
	d := core.New(0, 0)
	t0 := time.Now()
	for i, e := range tr {
		d.HandleEvent(i, e)
	}
	el := time.Since(t0)
	return el, len(d.Races())
}

// Chan produces the channel-HB cost/precision table. totalEvents <= 0
// defaults to 200k scaled by cfg.Scale with a 30k floor.
func Chan(cfg Config, totalEvents int) ChanReport {
	if totalEvents <= 0 {
		totalEvents = int(200_000 * cfg.Scale)
		if totalEvents < 30_000 {
			totalEvents = 30_000
		}
	}
	rep := ChanReport{
		CPUs: runtime.GOMAXPROCS(0),
		Runs: cfg.runs(),
	}
	for _, p := range chanProfiles(totalEvents) {
		scale := 1.0
		if p.Name == "mix" {
			// The mix profile has fixed repetition counts; scale it to
			// roughly the row budget (~20k events at scale 1).
			scale = float64(totalEvents) / 20_000
		}
		native := p.Generate(scale, sim.ChanNative)
		volatileTr := p.Generate(scale, sim.ChanVolatile)

		var nBest, vBest time.Duration
		var nRaces, vRaces int
		// Alternate the encodings within each repetition so cache and
		// frequency drift hit both sides equally.
		for r := 0; r < cfg.runs(); r++ {
			if el, races := chanRun(native); nBest == 0 || el < nBest {
				nBest, nRaces = el, races
			}
			if el, races := chanRun(volatileTr); vBest == 0 || el < vBest {
				vBest, vRaces = el, races
			}
		}
		nPer := float64(nBest.Nanoseconds()) / float64(len(native))
		vPer := float64(vBest.Nanoseconds()) / float64(len(volatileTr))
		rep.Rows = append(rep.Rows, ChanRow{
			Workload:             p.Name,
			Events:               len(native),
			SeededRaces:          p.KnownRaces(),
			NativeNs:             nBest.Nanoseconds(),
			NativeEventsPerSec:   float64(len(native)) / nBest.Seconds(),
			NativeRaces:          nRaces,
			VolatileNs:           vBest.Nanoseconds(),
			VolatileEventsPerSec: float64(len(volatileTr)) / vBest.Seconds(),
			VolatileRaces:        vRaces,
			CostRatio:            nPer / vPer,
		})
	}
	return rep
}

// ArtifactRows flattens the table into rows, one workload per profile,
// plus nativeRaceError, NativeRaces − SeededRaces: zero when the native
// rules report exactly the seeded races.
func (rep ChanReport) ArtifactRows() []Row {
	rows := fieldRows("chan", rep.Rows, func(r ChanRow) string { return r.Workload })
	for _, r := range rep.Rows {
		rows = append(rows, Row{Table: "chan", Workload: r.Workload, Metric: "nativeRaceError",
			Value: float64(r.NativeRaces - r.SeededRaces)})
	}
	return rows
}

// FprintChan renders the channel-HB comparison table.
func FprintChan(w io.Writer, rep ChanReport) {
	fmt.Fprintf(w, "Channel happens-before vs the legacy volatile encoding, best of %d, %d CPU(s)\n\n",
		rep.Runs, rep.CPUs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Workload\tevents\tseeded\tnative ev/s\traces\tvolatile ev/s\traces\tcost")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2fM\t%d\t%.2fM\t%d\t%.2fx\n",
			r.Workload, r.Events, r.SeededRaces,
			r.NativeEventsPerSec/1e6, r.NativeRaces,
			r.VolatileEventsPerSec/1e6, r.VolatileRaces, r.CostRatio)
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(the volatile encoding orders every receive after every preceding send,")
	fmt.Fprintln(w, " so it reports none of the seeded buffered-slack races; the native rules")
	fmt.Fprintln(w, " report each exactly once, paying a ring snapshot per operation)")
}
