package main

import (
	"fmt"
	"io"
	"os"

	"fasttrack/client"
)

// runRemote streams the trace to a racedetectd daemon instead of
// analyzing it in-process, and renders the session's final report in
// exactly the local batch format (so local and remote runs diff clean);
// the transport note goes to stderr. validate checks the trace's
// feasibility before streaming; the caller sets it only under -policy
// off, since the other policies repair, drop or stop on a violation in
// the daemon. Returns the process exit code.
func runRemote(path, addr, toolName, gran, policyName, fidelity string, shards int, validate, provenance, traceWire, jsonOut bool, jsonFile string) int {
	tr, err := readTrace(path)
	if err != nil {
		fatal(err)
	}
	if validate {
		if err := tr.Validate(); err != nil {
			fatal(fmt.Errorf("infeasible trace: %w", err))
		}
	}

	jsonWanted := jsonOut || jsonFile != ""

	opts := []client.Option{
		client.WithTool(toolName),
		client.WithGranularity(gran),
	}
	if jsonWanted && toolName == "FastTrack" {
		// Same gate as the local path: JSON FastTrack reports carry the
		// prior access's event index, so local and remote race lists for
		// the same trace diff clean.
		opts = append(opts, client.WithDetailedReports())
	}
	if policyName != "" && policyName != "off" {
		opts = append(opts, client.WithValidation(policyName))
	}
	if shards > 1 {
		opts = append(opts, client.WithShards(shards))
	}
	if fidelity != "" {
		opts = append(opts, client.WithFidelity(fidelity))
	}
	if provenance {
		opts = append(opts, client.WithProvenance())
	}
	if traceWire {
		opts = append(opts, client.WithTracing())
	}
	sess, err := client.Dial(addr, opts...)
	if err != nil {
		fatal(err)
	}
	for _, e := range tr {
		if err := sess.Write(e); err != nil {
			fatal(fmt.Errorf("streaming to %s: %w", addr, err))
		}
	}
	if err := sess.Close(); err != nil {
		fatal(fmt.Errorf("closing session: %w", err))
	}
	res, err := sess.Results()
	if err != nil {
		fatal(err)
	}

	// With the JSON report on stdout, the human-readable output moves to
	// stderr so stdout stays pure JSON (same convention as local runs).
	var humanOut io.Writer = os.Stdout
	if jsonWanted && jsonFile == "" {
		humanOut = os.Stderr
	}

	fmt.Fprintf(humanOut, "%s: %d warning(s)\n", res.Tool, len(res.Races))
	for _, r := range res.Races {
		fmt.Fprintf(humanOut, "  %s\n", r)
	}
	printDetails(humanOut, res.Detailed)
	// The daemon may have analyzed only a fraction of the offered
	// accesses (a sampled/adaptive session, or a force-sampled admission
	// under load); qualify the verdict.
	if res.DetectionProbability > 0 && res.DetectionProbability < 1 {
		fmt.Fprintf(humanOut, "  sampled analysis: detection probability %.3f\n", res.DetectionProbability)
	}
	if jsonWanted {
		rep := &runReport{Schema: runReportSchema, Trace: path, Tools: []toolReport{{
			Tool:   res.Tool,
			Events: res.Events,
			Races:  raceReportsDetailed(res.Races, tr, res.Detailed),
			Stats:  res.Stats,
			Health: healthReport{
				Healthy:              res.Health.Healthy,
				ToolDisabled:         res.Health.ToolDisabled,
				Panics:               res.Health.Panics,
				QuarantinedLocations: res.Health.QuarantinedLocations,
				QuarantinedAccesses:  res.Health.QuarantinedAccesses,
				Violations:           res.Health.Violations,
				Repaired:             res.Health.Repaired,
				Dropped:              res.Health.Dropped,
				Synthesized:          res.Health.Synthesized,
				UnheldReleases:       res.Health.UnheldReleases,
				Error:                res.Health.Err,
			},
		}}}
		if err := emitJSON(rep, jsonFile); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "racedetect: %d events analyzed remotely (session %s on %s)\n",
		res.Events, res.SessionID, addr)
	if len(res.Races) > 0 {
		return 1
	}
	return 0
}
