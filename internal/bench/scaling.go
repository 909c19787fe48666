package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"

	"fasttrack"
	"fasttrack/internal/sim"
)

// ScalingRow is one thread count of the scaling ablation: the per-event
// cost of each tool and the O(n) work counters, on an identical per-
// thread workload.
type ScalingRow struct {
	Threads  int
	Events   int
	NsPerEv  map[string]float64
	VCOps    map[string]int64
	ShadowKB map[string]int64
}

// ScalingTools are the tools the ablation compares.
var ScalingTools = []string{"FastTrack", "WriteEpochsOnly", "DJIT+", "BasicVC"}

// scalingProfile builds a mixed workload with the given thread count and
// a constant amount of work per thread, so per-event costs isolate the
// O(n) factor.
func scalingProfile(threads int) sim.Benchmark {
	return sim.Benchmark{
		Seed: int64(300 + threads),
		Profile: sim.Profile{
			Name:            fmt.Sprintf("scaling-%d", threads),
			Threads:         threads,
			ComputeBound:    true,
			ThreadLocalVars: 400,
			ThreadLocalReps: 3,
			ReadsPerSweep:   3,
			WritesPerSweep:  1,
			RandomSweep:     true,
			Locks:           threads,
			LockVars:        threads * 16,
			LockReps:        120,
			CSAccesses:      6,
			SharedVars:      1200,
			SharedReps:      4,
		},
	}
}

// Scaling is the thread-scaling ablation motivated by Section 1 of the
// paper: vector-clock operations cost O(n) in the thread count while
// FastTrack's epoch fast paths are O(1), so the gap between DJIT+/
// BasicVC and FastTrack must widen as threads grow. It is an extension
// of the paper's evaluation (which fixes each benchmark's thread count).
func Scaling(cfg Config, threadCounts []int) []ScalingRow {
	if len(threadCounts) == 0 {
		threadCounts = []int{2, 4, 8, 16, 32, 64}
	}
	var rows []ScalingRow
	for _, n := range threadCounts {
		b := scalingProfile(n)
		tr := b.Trace(cfg.Scale)
		base := BaseTime(tr, cfg.runs())
		row := ScalingRow{
			Threads:  n,
			Events:   len(tr),
			NsPerEv:  map[string]float64{},
			VCOps:    map[string]int64{},
			ShadowKB: map[string]int64{},
		}
		for _, tool := range ScalingTools {
			m := MeasureTool(tr, maker(tool, n), cfg, base)
			row.NsPerEv[tool] = float64(m.Elapsed.Nanoseconds()) / float64(len(tr))
			row.VCOps[tool] = m.Stats.VCOp
			row.ShadowKB[tool] = m.Stats.ShadowBytes / 1024
		}
		rows = append(rows, row)
	}
	return rows
}

// FprintScaling renders the scaling ablation.
func FprintScaling(w io.Writer, rows []ScalingRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tns/event\t\t\t\tO(n) VC ops\t\t\t\tShadow KB\t\t\t\tDJIT+/FT")
	fmt.Fprintln(tw, "Threads\tFT\tWEpoch\tDJIT+\tBasicVC\tFT\tWEpoch\tDJIT+\tBasicVC\tFT\tWEpoch\tDJIT+\tBasicVC\ttime ratio")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%.0f\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\n",
			r.Threads,
			r.NsPerEv["FastTrack"], r.NsPerEv["WriteEpochsOnly"], r.NsPerEv["DJIT+"], r.NsPerEv["BasicVC"],
			r.VCOps["FastTrack"], r.VCOps["WriteEpochsOnly"], r.VCOps["DJIT+"], r.VCOps["BasicVC"],
			r.ShadowKB["FastTrack"], r.ShadowKB["WriteEpochsOnly"], r.ShadowKB["DJIT+"], r.ShadowKB["BasicVC"],
			r.NsPerEv["DJIT+"]/r.NsPerEv["FastTrack"])
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(identical per-thread workload; the DJIT+/FastTrack gap widens with n,")
	fmt.Fprintln(w, " the O(1)-vs-O(n) separation the epoch representation buys)")
}

// ShardScalingReport is the ingestion-throughput table for the
// Monitor's lock-striped concurrent path: events/sec through a live
// Monitor at 1/2/4/8 feeder goroutines, serial versus sharded. CPUs
// records the parallelism available when the table was produced — on a
// single-core host the sharded rows cannot beat the serial ones, and
// consumers must interpret Speedup accordingly.
type ShardScalingReport struct {
	CPUs      int
	PerFeeder int
	Runs      int
	Rows      []ShardScalingRow
}

// ShardScalingRow is one (feeders, shards) cell: total events ingested,
// wall-clock time for the concurrent feeding phase (best of Runs), and
// the throughput relative to the serial monitor under the same feeder
// count (Speedup == 1 for the shards=1 rows themselves).
type ShardScalingRow struct {
	Feeders      int
	Shards       int
	Events       int64
	ElapsedNs    int64
	EventsPerSec float64
	Speedup      float64
}

// shardScalingRun feeds perFeeder access events from each of feeders
// goroutines into one monitor and times the concurrent phase. Each
// feeder works a disjoint block of variables (write/read pairs over a
// small working set), the workload on which striped ingestion should
// approach linear scaling: no two feeders ever contend on a variable,
// only — by hash collision — on a stripe lock.
func shardScalingRun(feeders, shards, perFeeder int) time.Duration {
	var opts []fasttrack.MonitorOption
	if shards > 1 {
		opts = append(opts, fasttrack.WithShards(shards))
	}
	m := fasttrack.NewMonitor(opts...)
	// Fork every feeder thread up front so its state is materialized and
	// the sharded path never needs the once-per-thread slow path mid-run.
	for f := 1; f <= feeders; f++ {
		m.Fork(0, int32(f))
	}
	const block = 4096
	var wg sync.WaitGroup
	start := make(chan struct{})
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			tid := int32(f + 1)
			base := uint64(f) * block
			<-start
			for i := 0; i < perFeeder; i += 2 {
				x := base + uint64(i/2)%block
				m.Write(tid, x)
				m.Read(tid, x)
			}
		}(f)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// ShardScaling produces the sharded-ingestion throughput table. Nil
// feederCounts defaults to 1/2/4/8 and nil shardCounts to serial-vs-8;
// perFeeder <= 0 defaults to 200k events per feeder.
func ShardScaling(cfg Config, feederCounts, shardCounts []int, perFeeder int) ShardScalingReport {
	if len(feederCounts) == 0 {
		feederCounts = []int{1, 2, 4, 8}
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 8}
	}
	if perFeeder <= 0 {
		perFeeder = int(200_000 * cfg.Scale)
		if perFeeder < 10_000 {
			perFeeder = 10_000
		}
	}
	rep := ShardScalingReport{
		CPUs:      runtime.GOMAXPROCS(0),
		PerFeeder: perFeeder,
		Runs:      cfg.runs(),
	}
	serial := map[int]float64{} // feeders -> serial events/sec
	for _, feeders := range feederCounts {
		for _, shards := range shardCounts {
			best := time.Duration(0)
			for r := 0; r < cfg.runs(); r++ {
				el := shardScalingRun(feeders, shards, perFeeder)
				if best == 0 || el < best {
					best = el
				}
			}
			events := int64(feeders) * int64(perFeeder)
			row := ShardScalingRow{
				Feeders:      feeders,
				Shards:       shards,
				Events:       events,
				ElapsedNs:    best.Nanoseconds(),
				EventsPerSec: float64(events) / best.Seconds(),
			}
			if shards == 1 {
				serial[feeders] = row.EventsPerSec
			}
			if s := serial[feeders]; s > 0 {
				row.Speedup = row.EventsPerSec / s
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// ArtifactRows flattens the table into rows, one workload
// "<feeders>x<shards>" per cell.
func (rep ShardScalingReport) ArtifactRows() []Row {
	return fieldRows("shards", rep.Rows, func(r ShardScalingRow) string { return fmt.Sprintf("%dx%d", r.Feeders, r.Shards) },
		"Feeders", "Shards")
}

// FprintShardScaling renders the sharded-ingestion throughput table.
func FprintShardScaling(w io.Writer, rep ShardScalingReport) {
	fmt.Fprintf(w, "Monitor ingestion throughput, %d events/feeder, best of %d, %d CPU(s)\n\n",
		rep.PerFeeder, rep.Runs, rep.CPUs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Feeders\tShards\tEvents\tms\tevents/sec\tvs serial")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.2fM\t%.2fx\n",
			r.Feeders, r.Shards, r.Events,
			float64(r.ElapsedNs)/1e6, r.EventsPerSec/1e6, r.Speedup)
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(disjoint per-feeder variable blocks; sharded speedup requires real")
	fmt.Fprintln(w, " CPU parallelism — on a single-core host the striped path only adds")
	fmt.Fprintln(w, " locking overhead, which this table then quantifies)")
}
