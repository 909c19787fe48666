// Command racebench regenerates the tables and figures of the FastTrack
// paper's evaluation (Section 5) from this module's synthetic workloads.
//
// Usage:
//
//	racebench [-table all|1|2|3|rules|compose|eclipse|ops|shards|batch] [-scale N] [-runs N]
//
// Table 1: slowdown and warnings for seven tools on sixteen benchmarks.
// Table 2: vector clocks allocated / O(n) VC operations, DJIT+ vs
// FastTrack. Table 3: memory overhead and slowdown, fine vs coarse
// granularity. "rules": the Figure 2 rule-frequency percentages.
// "compose": the Section 5.2 prefilter experiment. "eclipse": the
// Section 5.3 Eclipse-shaped experiment. "ops": per-detector analysis
// cost (ns/event) and constant-time path shares; with -out FILE it
// writes the machine-readable fasttrack/bench-ops/v1 JSON artifact
// (BENCH_ops.json in CI). "shards": live-Monitor ingestion throughput,
// serial vs lock-striped (WithShards), at 1/2/4/8 feeder goroutines;
// with -out FILE it writes the fasttrack/bench-scaling/v1 artifact
// (BENCH_scaling.json in CI). "batch": Monitor.IngestBatch throughput
// across batch sizes vs per-event Ingest, serial and sharded; with
// -out FILE it writes the fasttrack/bench-batch/v1 artifact
// (BENCH_batch.json in CI). "provenance": FastTrack throughput with
// the provenance flight recorder off vs on across workload mixes; with
// -out FILE it writes the fasttrack/bench-provenance/v1 artifact
// (BENCH_provenance.json in CI). "speed": serial per-event throughput
// of the struct-of-arrays shadow layout against the frozen pre-refactor
// baseline (DESIGN.md §13); with -out FILE it writes the
// fasttrack/bench-speed/v1 artifact (BENCH_speed.json in CI, gated at
// geomean >= 2x). "chan": channel happens-before cost and precision
// against the legacy volatile encoding on channel-heavy workloads
// (DESIGN.md §14); with -out FILE it writes the fasttrack/bench-chan/v1
// artifact (BENCH_chan.json in CI).
package main

import (
	"flag"
	"fmt"
	"os"

	"fasttrack/internal/bench"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: all, 1, 2, 3, rules, compose, eclipse, scaling, accordion, ops, shards, batch, fidelity, provenance, speed, chan")
	scale := flag.Float64("scale", 1, "workload scale factor")
	runs := flag.Int("runs", 3, "timed repetitions per cell (fastest kept)")
	asCSV := flag.Bool("csv", false, "emit machine-readable CSV instead of formatted tables (tables 1, 2, 3, compose, scaling, accordion)")
	out := flag.String("out", "", "for -table ops/shards/batch/fidelity: also write the JSON artifact to this file")
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Runs = *runs

	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "racebench:", err)
			os.Exit(1)
		}
	}
	run := func(name string) {
		if *asCSV {
			switch name {
			case "1":
				check(bench.Table1CSV(os.Stdout, bench.Table1(cfg)))
			case "2":
				check(bench.Table2CSV(os.Stdout, bench.Table2(cfg)))
			case "3":
				check(bench.Table3CSV(os.Stdout, bench.Table3(cfg)))
			case "compose":
				check(bench.ComposeCSV(os.Stdout, bench.Compose(cfg)))
			case "scaling":
				check(bench.ScalingCSV(os.Stdout, bench.Scaling(cfg, nil)))
			case "accordion":
				check(bench.AccordionCSV(os.Stdout, bench.Accordion(cfg, nil)))
			default:
				fmt.Fprintf(os.Stderr, "racebench: no CSV renderer for table %q\n", name)
				os.Exit(2)
			}
			return
		}
		switch name {
		case "1":
			fmt.Println("=== Table 1: slowdowns and warnings ===")
			bench.FprintTable1(os.Stdout, bench.Table1(cfg))
		case "2":
			fmt.Println("=== Table 2: vector clock allocation and usage ===")
			bench.FprintTable2(os.Stdout, bench.Table2(cfg))
		case "3":
			fmt.Println("=== Table 3: fine vs coarse granularity ===")
			bench.FprintTable3(os.Stdout, bench.Table3(cfg))
		case "rules":
			fmt.Println("=== Figure 2: operation mix and rule frequencies ===")
			bench.FprintRules(os.Stdout, bench.RuleFrequencies(cfg))
		case "compose":
			fmt.Println("=== Section 5.2: analysis composition ===")
			bench.FprintCompose(os.Stdout, bench.Compose(cfg))
		case "eclipse":
			fmt.Println("=== Section 5.3: Eclipse-shaped workloads ===")
			bench.FprintEclipse(os.Stdout, bench.Eclipse(cfg))
		case "scaling":
			fmt.Println("=== Ablation: thread-count scaling (O(1) epochs vs O(n) VCs) ===")
			bench.FprintScaling(os.Stdout, bench.Scaling(cfg, nil))
		case "accordion":
			fmt.Println("=== Extension: accordion-style dead-thread compaction ===")
			bench.FprintAccordion(os.Stdout, bench.Accordion(cfg, nil))
		case "ops":
			fmt.Println("=== Per-detector cost and operation mix ===")
			rep := bench.Ops(cfg, nil, nil)
			bench.FprintOps(os.Stdout, rep)
			if *out != "" {
				f, err := os.Create(*out)
				check(err)
				check(bench.WriteOpsJSON(f, rep))
				check(f.Close())
				fmt.Fprintf(os.Stderr, "racebench: wrote %s\n", *out)
			}
		case "shards":
			fmt.Println("=== Extension: sharded Monitor ingestion throughput ===")
			rep := bench.ShardScaling(cfg, nil, nil, 0)
			bench.FprintShardScaling(os.Stdout, rep)
			if *out != "" {
				f, err := os.Create(*out)
				check(err)
				check(bench.WriteShardScalingJSON(f, rep))
				check(f.Close())
				fmt.Fprintf(os.Stderr, "racebench: wrote %s\n", *out)
			}
		case "batch":
			fmt.Println("=== Extension: batched Monitor ingestion throughput ===")
			rep := bench.Batch(cfg, nil, 0, 0)
			bench.FprintBatch(os.Stdout, rep)
			if *out != "" {
				f, err := os.Create(*out)
				check(err)
				check(bench.WriteBatchJSON(f, rep))
				check(f.Close())
				fmt.Fprintf(os.Stderr, "racebench: wrote %s\n", *out)
			}
		case "fidelity":
			fmt.Println("=== Extension: sampling-tier cost/coverage curve ===")
			rep := bench.Fidelity(cfg, nil, 0, 0)
			bench.FprintFidelity(os.Stdout, rep)
			if *out != "" {
				f, err := os.Create(*out)
				check(err)
				check(bench.WriteFidelityJSON(f, rep))
				check(f.Close())
				fmt.Fprintf(os.Stderr, "racebench: wrote %s\n", *out)
			}
		case "provenance":
			fmt.Println("=== Extension: provenance flight-recorder overhead ===")
			rep := bench.Provenance(cfg, 0)
			bench.FprintProvenance(os.Stdout, rep)
			if *out != "" {
				f, err := os.Create(*out)
				check(err)
				check(bench.WriteProvenanceJSON(f, rep))
				check(f.Close())
				fmt.Fprintf(os.Stderr, "racebench: wrote %s\n", *out)
			}
		case "speed":
			fmt.Println("=== Refactor gate: raw shadow-layout speed vs frozen baseline ===")
			rep, err := bench.Speed(cfg)
			check(err)
			bench.FprintSpeed(os.Stdout, rep)
			if *out != "" {
				f, err := os.Create(*out)
				check(err)
				check(bench.WriteSpeedJSON(f, rep))
				check(f.Close())
				fmt.Fprintf(os.Stderr, "racebench: wrote %s\n", *out)
			}
		case "chan":
			fmt.Println("=== Extension: channel happens-before vs volatile encoding ===")
			rep := bench.Chan(cfg, 0)
			bench.FprintChan(os.Stdout, rep)
			if *out != "" {
				f, err := os.Create(*out)
				check(err)
				check(bench.WriteChanJSON(f, rep))
				check(f.Close())
				fmt.Fprintf(os.Stderr, "racebench: wrote %s\n", *out)
			}
		default:
			fmt.Fprintf(os.Stderr, "racebench: unknown table %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *table == "all" {
		for _, name := range []string{"1", "2", "3", "rules", "compose", "eclipse", "scaling", "accordion", "ops", "shards", "batch", "fidelity", "provenance", "speed", "chan"} {
			run(name)
		}
		return
	}
	run(*table)
}
