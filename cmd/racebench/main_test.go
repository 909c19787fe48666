package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"fasttrack/internal/bench"
)

// TestOneArtifactHoldsEveryTable runs two gated tables in one process:
// the artifact must hold the rows of both, not only the last one's.
func TestOneArtifactHoldsEveryTable(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stderr bytes.Buffer
	if code := run([]string{"ops", "chan"}, bench.Config{Scale: 0.05, Runs: 1}, out, io.Discard, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var a bench.Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	if a.Schema != bench.Schema {
		t.Errorf("schema %q, want %q", a.Schema, bench.Schema)
	}
	tables := map[string]int{}
	for _, r := range a.Rows {
		tables[r.Table]++
	}
	if len(tables) != 2 || tables["ops"] == 0 || tables["chan"] == 0 {
		t.Errorf("rows per table = %v, want ops and chan", tables)
	}
}

func TestUnknownTable(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"fleet"}, bench.DefaultConfig(), "", io.Discard, &stderr); code != 2 {
		t.Errorf("exit %d, want 2:\n%s", code, stderr.String())
	}
}
