package bench

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"

	"fasttrack/internal/sim"
)

// Schema versions racebench's one machine-readable artifact. Fields
// and metrics are only ever added within a schema version.
const Schema = "fasttrack/bench/v1"

// Artifact is what `racebench -out FILE` writes: an envelope describing
// the run and one flat row per measured value, for every gated table
// the run regenerated.
type Artifact struct {
	Schema string  `json:"schema"`
	CPUs   int     `json:"cpus"`
	Scale  float64 `json:"scale"`
	Runs   int     `json:"runs"`
	Rows   []Row   `json:"rows"`
}

// Row is one measured value. Workload may be composite, naming a cell
// of a table ("sharded/64", "crypt/FastTrack", "8x8"). Bound is the
// interval Check held Value to, empty when no gate applies to the row.
type Row struct {
	Table    string  `json:"table"`
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Bound    string  `json:"bound,omitempty"`
}

// NewArtifact returns an empty artifact for a run under cfg on this
// host.
func NewArtifact(cfg Config) *Artifact {
	return &Artifact{Schema: Schema, CPUs: runtime.GOMAXPROCS(0), Scale: cfg.Scale, Runs: cfg.runs(), Rows: []Row{}}
}

// fieldRows returns one row per numeric field of each struct in rs,
// under the workload that workload names it and the field's name with
// the first letter lowered as metric. A nil pointer field yields no
// row, and neither does a field named in skip: the cell coordinates
// that the workload already spells.
func fieldRows[T any](table string, rs []T, workload func(T) string, skip ...string) []Row {
	var rows []Row
	for _, r := range rs {
		rv := reflect.ValueOf(r)
		for i := 0; i < rv.NumField(); i++ {
			name := rv.Type().Field(i).Name
			if slices.Contains(skip, name) {
				continue
			}
			f := rv.Field(i)
			if f.Kind() == reflect.Pointer && !f.IsNil() {
				f = f.Elem()
			}
			var x float64
			switch {
			case f.CanInt():
				x = float64(f.Int())
			case f.CanFloat():
				x = f.Float()
			default:
				continue
			}
			rows = append(rows, Row{Table: table, Workload: workload(r), Metric: strings.ToLower(name[:1]) + name[1:], Value: x})
		}
	}
	return rows
}

// bound is the interval a gated value must lie in. Lo and Hi are
// inclusive unless LoOpen or HiOpen; an infinite end is open.
type bound struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

func above(x float64) bound   { return bound{Lo: x, Hi: math.Inf(1), LoOpen: true, HiOpen: true} }
func atLeast(x float64) bound { return bound{Lo: x, Hi: math.Inf(1), HiOpen: true} }
func exactly(x float64) bound { return bound{Lo: x, Hi: x} }

// holds reports whether v lies in b; NaN lies in no interval.
func (b bound) holds(v float64) bool {
	lo := v > b.Lo || !b.LoOpen && v == b.Lo
	hi := v < b.Hi || !b.HiOpen && v == b.Hi
	return lo && hi
}

// String renders b in interval notation, such as "(0, 2]" or "[3, +Inf)".
func (b bound) String() string {
	lo, hi := "[", "]"
	if b.LoOpen {
		lo = "("
	}
	if b.HiOpen {
		hi = ")"
	}
	return fmt.Sprintf("%s%.6g, %.6g%s", lo, b.Lo, b.Hi, hi)
}

// gate is one bound racebench enforces: the row (Table, Workload,
// Metric) must exist and its value must lie in Bound. When, if non-nil,
// is the condition on the artifact under which alone the bound holds;
// while it is false the gate is not attached.
type gate struct {
	Table, Workload, Metric string
	Bound                   bound
	When                    func(*Artifact) bool
}

func (g gate) String() string {
	return fmt.Sprintf("%s %s %s in %v", g.Table, g.Workload, g.Metric, g.Bound)
}

// gates is every bound racebench enforces, table by table. Each
// coverage requirement is a positivity gate on a row that must exist.
var gates = func() []gate {
	var gs []gate
	add := func(table, workload string, b bound, metrics ...string) {
		for _, m := range metrics {
			gs = append(gs, gate{Table: table, Workload: workload, Metric: m, Bound: b})
		}
	}
	positive := above(0)

	// ops: every Table 1 workload is measured, and FastTrack's
	// constant-time paths handle most of each one's accesses.
	for _, b := range sim.Benchmarks() {
		add("ops", b.Name, positive, "events")
		add("ops", b.Name+"/FastTrack", positive, "nsPerEvent")
		add("ops", b.Name+"/FastTrack", bound{Lo: 50, Hi: 100, LoOpen: true}, "fastPathPct")
	}

	// shards: striping cannot beat serial ingestion without cores to
	// run the stripes on, so the speedup bound needs 4 of them.
	for _, f := range []int{1, 2, 4, 8} {
		for _, s := range []int{1, 8} {
			add("shards", fmt.Sprintf("%dx%d", f, s), positive, "events", "elapsedNs", "eventsPerSec")
		}
	}
	gs = append(gs, gate{Table: "shards", Workload: "8x8", Metric: "speedup", Bound: atLeast(3),
		When: func(a *Artifact) bool { return a.CPUs >= 4 }})

	// batch: batched ingestion never falls below per-event throughput
	// at the service's typical frame size, 64. The producer is single,
	// so this holds on any core count.
	for _, mode := range []string{"serial", "sharded"} {
		for _, b := range []int{0, 1, 8, 64, 512, 4096} {
			add("batch", fmt.Sprintf("%s/%d", mode, b), positive, "elapsedNs", "eventsPerSec")
		}
		add("batch", mode+"/64", atLeast(1), "speedup")
	}

	// fidelity: each rate's measured detection probability tracks the
	// rate, and sampled(0.1) stays >= 5x full-fidelity throughput (the
	// committed baseline records ~8x).
	for _, rate := range []float64{1, 0.5, 0.25, 0.1, 0.01, 0} {
		w := fmt.Sprint(rate)
		add("fidelity", w, positive, "elapsedNs", "eventsPerSec")
		add("fidelity", w, bound{Lo: rate - 0.05, Hi: rate + 0.05, LoOpen: true, HiOpen: true}, "detectionProbability")
	}
	add("fidelity", "0.1", atLeast(5), "speedup")

	// provenance: the flight recorder stays an affordable opt-in. The
	// committed baseline records <= 1.45x on every mix against a 1.5x
	// budget; 2.0x absorbs shared-runner noise and still catches the
	// accidental-copy regressions the table exists to guard against.
	for _, w := range []string{"epoch-heavy", "sync-heavy", "shared-heavy"} {
		add("provenance", w, positive, "events", "baseNs", "provNs")
		add("provenance", w, bound{Lo: 0, Hi: 2, LoOpen: true}, "overhead")
	}

	// speed: the struct-of-arrays shadow layout holds a >= 2x serial
	// throughput geomean over the frozen pre-refactor baseline. Below
	// full scale the working sets fit in cache and the ratio measures
	// only shared dispatch overhead, so the bound needs scale >= 1.
	for _, w := range []string{"same-epoch", "sweep", "read-shared", "first-touch", "mixed"} {
		add("speed", w, positive, "events", "baselineNsPerEvent", "nsPerEvent")
	}
	gs = append(gs, gate{Table: "speed", Workload: "geomean", Metric: "speedup", Bound: atLeast(2),
		When: func(a *Artifact) bool { return a.Scale >= 1 }})

	// chan: the native channel rules report exactly the seeded
	// buffered-slack races on every workload, and the legacy volatile
	// encoding, whose over-ordering is why the channel kinds exist,
	// reports none. Cost is reported but not gated.
	for _, w := range []string{"handoff", "ring", "slack", "mix"} {
		add("chan", w, positive, "events", "nativeNs", "volatileNs")
		add("chan", w, exactly(0), "nativeRaceError", "volatileRaces")
	}
	add("chan", "slack", positive, "seededRaces")
	return gs
}()

// errNoRow marks a gate that no row matched.
var errNoRow = errors.New("no row")

// Check evaluates the gates of the named tables against a's rows and
// returns one error per failure, each naming its gate. A gate fails
// when no row matches it or when a matching row's value lies outside
// its bound; every matching row is stamped with the bound either way.
// Check also rejects a malformed envelope.
func (a *Artifact) Check(tables ...string) []error {
	var errs []error
	if a.Schema != Schema || a.CPUs < 1 || a.Runs < 1 {
		errs = append(errs, fmt.Errorf("envelope: schema %q, cpus %d, runs %d; want %q, cpus >= 1, runs >= 1",
			a.Schema, a.CPUs, a.Runs, Schema))
	}
	for _, g := range gates {
		if !slices.Contains(tables, g.Table) || g.When != nil && !g.When(a) {
			continue
		}
		matched := false
		for i := range a.Rows {
			r := &a.Rows[i]
			if r.Table != g.Table || r.Workload != g.Workload || r.Metric != g.Metric {
				continue
			}
			matched = true
			r.Bound = g.Bound.String()
			if !g.Bound.holds(r.Value) {
				errs = append(errs, fmt.Errorf("gate %v: got %g", g, r.Value))
			}
		}
		if !matched {
			errs = append(errs, fmt.Errorf("gate %v: %w", g, errNoRow))
		}
	}
	return errs
}
