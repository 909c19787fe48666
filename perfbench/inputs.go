package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"fasttrack"
	"fasttrack/internal/core"
	"fasttrack/internal/rr"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// input is one generated trace with its reference race set.
type input struct {
	name   string
	events int64
	ref    varSet // racy variables DJIT+ reports
	digest string // of the binary encoding
	path   string // binary trace file (replay)
	tr     trace.Trace
}

// varSet is a set of racy variables.
type varSet map[uint64]bool

func (s varSet) String() string {
	vs := make([]uint64, 0, len(s))
	for v := range s {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = "x" + strconv.FormatUint(v, 10)
	}
	return "{" + strings.Join(parts, " ") + "}"
}

func (s varSet) equal(o varSet) bool {
	if len(s) != len(o) {
		return false
	}
	for v := range s {
		if !o[v] {
			return false
		}
	}
	return true
}

func racyVars(reports []fasttrack.Report) varSet {
	s := varSet{}
	for _, r := range reports {
		s[r.Var] = true
	}
	return s
}

// profileSeed derives a profile's generator seed from its own default
// seed and the benchmark seed, so every input changes with --seed.
func profileSeed(base, seed int64) int64 { return base*1_000_003 + seed }

// replayProfiles are the twelve compute-bound Table 1 profiles.
func replayProfiles() []sim.Benchmark {
	var bs []sim.Benchmark
	for _, b := range sim.Benchmarks() {
		if b.ComputeBound {
			bs = append(bs, b)
		}
	}
	return bs
}

// streamProfileNames are the five Eclipse profiles and four sync-heavy
// Table 1 profiles; streamInputs adds the channel profile.
var streamProfileNames = []string{
	"eclipse-startup", "eclipse-import", "eclipse-clean-small", "eclipse-clean-large", "eclipse-debug",
	"elevator", "philo", "hedc", "jbb",
}

// generate builds one profile's trace for the seed.
func generate(b sim.Benchmark, seed int64, scale float64) trace.Trace {
	return b.Profile.Generate(profileSeed(b.Seed, seed), scale)
}

// newInput encodes tr, fills in its digest and computes its reference
// race set with DJIT+ (the paper's Table 1 has FastTrack and DJIT+
// reporting the same warnings). It returns the binary encoding.
func newInput(name string, tr trace.Trace) (*input, []byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		return nil, nil, fmt.Errorf("encode %s: %w", name, err)
	}
	tool, err := fasttrack.NewTool("DJIT+", fasttrack.Hints{Threads: tr.Threads()})
	if err != nil {
		return nil, nil, err
	}
	d := rr.NewDispatcher(tool)
	d.Feed(tr)
	in := &input{
		name:   name,
		events: int64(len(tr)),
		ref:    racyVars(tool.Races()),
		digest: digest(buf.Bytes()),
	}
	return in, buf.Bytes(), nil
}

// corruptVar is the variable the negative test adds to every reference
// race set; no generated trace uses it.
const corruptVar = 1 << 40

// prepare applies the negative test's corrupted reference, when the
// config asks for it, and prints the input's digest.
func (in *input) prepare(res *result, cfg config) {
	if cfg.corruptRef {
		in.ref[corruptVar] = true
	}
	res.notef("input %-20s events=%-8d sha256=%s reference=%v", in.name, in.events, in.digest, in.ref)
}

// readFloor is the slowdown base of the trace workloads: the time to
// read the input's binary trace file from the page cache into a buffer,
// which no change to the analysis can move. It is the fastest of three
// reads, taken right after the units it is the base of.
func readFloor(path string, buf *[]byte) (time.Duration, error) {
	best := time.Duration(-1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		fi, err := f.Stat()
		if err == nil {
			if int64(cap(*buf)) < fi.Size() {
				*buf = make([]byte, fi.Size())
			}
			_, err = io.ReadFull(f, (*buf)[:fi.Size()])
		}
		f.Close()
		if err != nil {
			return 0, err
		}
		if d := time.Since(t0); best < 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// cycle is one loop's pass over all of a workload's inputs.
type cycle struct {
	events int64         // events analysed
	wall   time.Duration // from the pass's start to its end
	work   time.Duration // summed time of its units (processes or sessions)
	floor  time.Duration // summed readFloor of its units' trace files
}

// cycleRates returns the throughput and the slowdown of the trace
// workloads from their passes: the throughput is the median pass rate of
// each loop, summed over the loops that ran at once; the slowdown is the
// median over passes of unit time to read floor. Medians over passes keep
// a burst of interference on the machine from moving the run's figure.
func cycleRates(loops [][]cycle) (eventsPerS, slowdown float64) {
	var slow []float64
	for _, l := range loops {
		var rates []float64
		for _, c := range l {
			rates = append(rates, float64(c.events)/c.wall.Seconds())
			slow = append(slow, ratio(float64(c.work), float64(c.floor)))
		}
		eventsPerS += median(rates)
	}
	return eventsPerS, median(slow)
}

// delivered is the event stream the dispatcher hands its tool for tr.
func delivered(tr trace.Trace) trace.Trace {
	rec := rr.NewRecorder()
	rr.NewDispatcher(rec).Feed(tr)
	return rec.Trace()
}

// detectorAlone times the bare FastTrack detector
// (core.Detector.HandleEvent) on the stream the dispatcher delivers for
// tr, taking the fastest of three runs, and returns its statistics.
func detectorAlone(tr trace.Trace) (time.Duration, rr.Stats) {
	del := delivered(tr)
	best := time.Duration(-1)
	var st rr.Stats
	for i := 0; i < 3; i++ {
		det := core.New(tr.Threads(), 0)
		t0 := time.Now()
		for j, e := range del {
			det.HandleEvent(j, e)
		}
		d := time.Since(t0)
		if best < 0 || d < best {
			best = d
		}
		st = det.Stats()
	}
	return best, st
}

// coreShares returns the same-epoch share and the slow-path share of
// accesses: slow paths are the O(n) ones, read-share inflation and
// writes to read-shared variables.
func coreShares(st rr.Stats) (sameEpoch, slow float64) {
	acc := float64(st.Reads + st.Writes)
	return ratio(float64(st.ReadSameEpoch+st.WriteSameEpoch), acc),
		ratio(float64(st.ReadShare+st.WriteShared), acc)
}

var (
	warningsRE = regexp.MustCompile(`^FastTrack: (\d+) warning\(s\)$`)
	raceRE     = regexp.MustCompile(`^  \S+ race on x(\d+): `)
)

// parseReport reads racedetect's default text report, the warning count
// line and one line per warning, and returns the racy variables. Other
// lines (the target's own output under racedetect run) are skipped.
func parseReport(out []byte) (varSet, error) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	want := -1
	got := 0
	vars := varSet{}
	for sc.Scan() {
		line := sc.Text()
		if m := warningsRE.FindStringSubmatch(line); m != nil {
			want, _ = strconv.Atoi(m[1])
			continue
		}
		if m := raceRE.FindStringSubmatch(line); m != nil && want >= 0 {
			v, err := strconv.ParseUint(m[1], 10, 64)
			if err != nil {
				return nil, err
			}
			vars[v] = true
			got++
		}
	}
	if want < 0 {
		return nil, fmt.Errorf("no FastTrack warning count in the output")
	}
	if got != want {
		return nil, fmt.Errorf("report announces %d warnings but lists %d", want, got)
	}
	return vars, nil
}
