// Command racebench regenerates the tables and figures of the FastTrack
// paper's evaluation (Section 5) from this module's synthetic workloads
// and checks the bounds its gated tables must hold.
//
// Usage:
//
//	racebench [-table all|NAME] [-scale N] [-runs N] [-out FILE]
//
// Paper tables: "1" slowdown and warnings of seven tools on sixteen
// benchmarks; "2" vector clocks allocated and O(n) operations, DJIT+ vs
// FastTrack; "3" fine vs coarse granularity; "rules" the Figure 2 rule
// frequencies; "compose" the Section 5.2 prefilter experiment;
// "eclipse" the Section 5.3 Eclipse workloads; "scaling" the
// thread-count ablation; "accordion" dead-thread clock compaction.
//
// Gated tables: "ops" per-detector ns/event and constant-time path
// shares; "shards" Monitor ingestion throughput, serial vs lock-striped,
// at 1/2/4/8 feeders; "batch" IngestBatch vs per-event Ingest;
// "fidelity" throughput and detection probability across sampling
// rates; "provenance" the flight recorder's overhead; "speed" the
// shadow layout against the frozen pre-refactor baseline (DESIGN.md
// §13); "chan" channel happens-before vs the volatile encoding
// (DESIGN.md §14). racebench checks the rows of every gated table it
// runs against the gate list of internal/bench, prints each violated
// gate and exits 1. -out FILE writes those rows, each gated one stamped
// with its bound, as one fasttrack/bench/v1 artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"fasttrack/internal/bench"
)

// tables is every table racebench regenerates, in -table all order.
var tables = []string{"1", "2", "3", "rules", "compose", "eclipse", "scaling", "accordion",
	"ops", "shards", "batch", "fidelity", "provenance", "speed", "chan"}

func main() {
	table := flag.String("table", "all", "which table to regenerate: all, "+strings.Join(tables, ", "))
	scale := flag.Float64("scale", 1, "workload scale factor")
	runs := flag.Int("runs", 3, "timed repetitions per cell (fastest kept)")
	out := flag.String("out", "", "write the "+bench.Schema+" artifact of the gated tables run (ops, shards, batch, fidelity, provenance, speed, chan) to this file")
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Runs = *runs
	names := []string{*table}
	if *table == "all" {
		names = tables
	}
	os.Exit(run(names, cfg, *out, os.Stdout, os.Stderr))
}

// run regenerates the named tables onto stdout, checks the gates of
// every table it ran, writes the artifact to out when out is set, and
// returns the exit status: 0, 1 on a violated gate or a failed table,
// 2 on an unknown table.
func run(names []string, cfg bench.Config, out string, stdout, stderr io.Writer) int {
	for _, name := range names {
		if !slices.Contains(tables, name) {
			fmt.Fprintf(stderr, "racebench: unknown table %q\n", name)
			return 2
		}
	}
	art := bench.NewArtifact(cfg)
	for _, name := range names {
		rows, err := regenerate(name, cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "racebench:", err)
			return 1
		}
		art.Rows = append(art.Rows, rows...)
		fmt.Fprintln(stdout)
	}
	violations := art.Check(names...)
	if out != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "racebench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "racebench: wrote %s\n", out)
	}
	for _, v := range violations {
		fmt.Fprintln(stderr, "racebench:", v)
	}
	if len(violations) > 0 {
		return 1
	}
	return 0
}

// regenerate prints one table to w and returns its artifact rows, which
// only the gated tables have.
func regenerate(name string, cfg bench.Config, w io.Writer) ([]bench.Row, error) {
	switch name {
	case "1":
		fmt.Fprintln(w, "=== Table 1: slowdowns and warnings ===")
		bench.FprintTable1(w, bench.Table1(cfg))
	case "2":
		fmt.Fprintln(w, "=== Table 2: vector clock allocation and usage ===")
		bench.FprintTable2(w, bench.Table2(cfg))
	case "3":
		fmt.Fprintln(w, "=== Table 3: fine vs coarse granularity ===")
		bench.FprintTable3(w, bench.Table3(cfg))
	case "rules":
		fmt.Fprintln(w, "=== Figure 2: operation mix and rule frequencies ===")
		bench.FprintRules(w, bench.RuleFrequencies(cfg))
	case "compose":
		fmt.Fprintln(w, "=== Section 5.2: analysis composition ===")
		bench.FprintCompose(w, bench.Compose(cfg))
	case "eclipse":
		fmt.Fprintln(w, "=== Section 5.3: Eclipse-shaped workloads ===")
		bench.FprintEclipse(w, bench.Eclipse(cfg))
	case "scaling":
		fmt.Fprintln(w, "=== Ablation: thread-count scaling (O(1) epochs vs O(n) VCs) ===")
		bench.FprintScaling(w, bench.Scaling(cfg, nil))
	case "accordion":
		fmt.Fprintln(w, "=== Extension: accordion-style dead-thread compaction ===")
		bench.FprintAccordion(w, bench.Accordion(cfg, nil))
	case "ops":
		fmt.Fprintln(w, "=== Per-detector cost and operation mix ===")
		return gated(w, bench.Ops(cfg, nil, nil), bench.FprintOps), nil
	case "shards":
		fmt.Fprintln(w, "=== Extension: sharded Monitor ingestion throughput ===")
		return gated(w, bench.ShardScaling(cfg, nil, nil, 0), bench.FprintShardScaling), nil
	case "batch":
		fmt.Fprintln(w, "=== Extension: batched Monitor ingestion throughput ===")
		return gated(w, bench.Batch(cfg, nil, 0, 0), bench.FprintBatch), nil
	case "fidelity":
		fmt.Fprintln(w, "=== Extension: sampling-tier cost/coverage curve ===")
		return gated(w, bench.Fidelity(cfg, nil, 0, 0), bench.FprintFidelity), nil
	case "provenance":
		fmt.Fprintln(w, "=== Extension: provenance flight-recorder overhead ===")
		return gated(w, bench.Provenance(cfg, 0), bench.FprintProvenance), nil
	case "speed":
		fmt.Fprintln(w, "=== Refactor gate: raw shadow-layout speed vs frozen baseline ===")
		rep, err := bench.Speed(cfg)
		if err != nil {
			return nil, err
		}
		return gated(w, rep, bench.FprintSpeed), nil
	case "chan":
		fmt.Fprintln(w, "=== Extension: channel happens-before vs volatile encoding ===")
		return gated(w, bench.Chan(cfg, 0), bench.FprintChan), nil
	}
	return nil, nil
}

// gated prints a gated table's report and returns its artifact rows.
func gated[R interface{ ArtifactRows() []bench.Row }](w io.Writer, rep R, print func(io.Writer, R)) []bench.Row {
	print(w, rep)
	return rep.ArtifactRows()
}
