package fasttrack_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// rssProbeEnv switches TestRacedetectMemoryBounded into its probe mode:
// run the racedetect binary named in the variable on the trace after it
// and print the child's peak RSS.
const rssProbeEnv = "FASTTRACK_RSS_PROBE"

// TestRacedetectMemoryBounded: a local replay streams the trace through
// a few fixed-size chunks instead of loading it, so racedetect's peak
// RSS on crypt (846k events; about 160 MB when the whole trace was
// loaded) stays far below the trace's in-memory size.
//
// On Linux a child's ru_maxrss starts at its parent's peak RSS (exec
// records the peak of the address space it replaces, which for Go's
// vfork-style spawn is the parent's), so racedetect is spawned from a
// fresh copy of this test binary rather than from this process, whose
// footprint earlier tests may have grown.
func TestRacedetectMemoryBounded(t *testing.T) {
	if probe := os.Getenv(rssProbeEnv); probe != "" {
		bin, tracePath, _ := strings.Cut(probe, "\n")
		cmd := exec.Command(bin, tracePath)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("racedetect: %v\n%s", err, out)
		}
		fmt.Printf("maxrss-kb %d\n", cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss)
		return
	}
	const boundMB = 48
	tracePath := filepath.Join(t.TempDir(), "crypt.bin")
	if out, code := run(t, "tracegen", "-workload", "crypt", "-format", "binary", "-o", tracePath); code != 0 {
		t.Fatalf("tracegen failed (%d): %s", code, out)
	}
	probe := exec.Command(os.Args[0], "-test.run=^TestRacedetectMemoryBounded$")
	probe.Env = append(os.Environ(), rssProbeEnv+"="+filepath.Join(binaries(t), "racedetect")+"\n"+tracePath)
	out, err := probe.CombinedOutput()
	if err != nil {
		t.Fatalf("probe: %v\n%s", err, out)
	}
	var kb int64
	if i := strings.Index(string(out), "maxrss-kb "); i < 0 {
		t.Fatalf("probe printed no peak RSS:\n%s", out)
	} else if _, err := fmt.Sscan(string(out[i+len("maxrss-kb "):]), &kb); err != nil {
		t.Fatalf("probe output: %v\n%s", err, out)
	}
	t.Logf("racedetect peak RSS on crypt: %d MB", kb/1024)
	if kb/1024 > boundMB {
		t.Errorf("racedetect peak RSS %d MB exceeds %d MB", kb/1024, boundMB)
	}
}
