package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func scanAll(t *testing.T, r *Scanner) Trace {
	t.Helper()
	var tr Trace
	for r.Scan() {
		tr = append(tr, r.Event())
	}
	if err := r.Err(); err != nil {
		t.Fatalf("scan error: %v", err)
	}
	return tr
}

func TestScannerTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, NewScanner(&buf))
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("got %v, want %v", got, tr)
	}
}

func TestScannerBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(&buf)
	got := scanAll(t, sc)
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("got %v, want %v", got, tr)
	}
	if sc.Index() != len(tr) {
		t.Errorf("Index = %d, want %d", sc.Index(), len(tr))
	}
}

func TestScannerSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nrd 0 x1\n  # inline\nwr 1 x2"
	got := scanAll(t, NewScanner(strings.NewReader(in)))
	want := Trace{Rd(0, 1), Wr(1, 2)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestScannerReportsErrors(t *testing.T) {
	sc := NewScanner(strings.NewReader("rd 0 x1\nbogus line\n"))
	if !sc.Scan() {
		t.Fatal("first event should scan")
	}
	if sc.Scan() {
		t.Fatal("bogus line should fail")
	}
	if sc.Err() == nil {
		t.Fatal("Err must report the parse failure")
	}
	if sc.Scan() {
		t.Fatal("scanner must stay failed")
	}
}

func TestScannerTruncatedBinary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Trace{Barrier(0, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	sc := NewScanner(bytes.NewReader(b[:len(b)-1]))
	if sc.Scan() {
		t.Fatal("truncated event scanned")
	}
	if sc.Err() == nil {
		t.Fatal("truncation must surface as an error")
	}
}

func TestScannerEmptyInput(t *testing.T) {
	sc := NewScanner(strings.NewReader(""))
	if sc.Scan() {
		t.Fatal("empty input scanned")
	}
	if sc.Err() != nil {
		t.Fatalf("clean EOF reported as error: %v", sc.Err())
	}
}

func TestStreamingWriterMatchesBatchWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomTrace(rng, 300)
	for _, f := range []Format{Text, Binary} {
		var streamed, batch bytes.Buffer
		w := NewWriter(&streamed, f)
		for _, e := range tr {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var err error
		if f == Text {
			err = WriteText(&batch, tr)
		} else {
			err = WriteBinary(&batch, tr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
			t.Errorf("format %d: streamed output differs from batch output", f)
		}
	}
}

func TestEmptyBinaryWriterStillValid(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Binary)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("empty binary trace unreadable: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestValidatorIncrementalMatchesBatch(t *testing.T) {
	cases := []Trace{
		{ForkOf(0, 1), Wr(1, 1), JoinOf(0, 1)},
		{Acq(0, 1), Acq(0, 1)},
		{Rel(0, 1)},
		{ForkOf(0, 1), JoinOf(0, 1)},
	}
	for i, tr := range cases {
		batch := tr.Validate()
		v := NewValidator()
		var inc error
		for _, e := range tr {
			if inc = v.Event(e); inc != nil {
				break
			}
		}
		if (batch == nil) != (inc == nil) {
			t.Errorf("case %d: batch=%v incremental=%v", i, batch, inc)
		}
		if batch != nil && inc != nil && batch.Error() != inc.Error() {
			t.Errorf("case %d: messages differ: %q vs %q", i, batch, inc)
		}
	}
}

func TestValidatorIndexInErrors(t *testing.T) {
	v := NewValidator()
	if err := v.Event(Rd(0, 1)); err != nil {
		t.Fatal(err)
	}
	err := v.Event(Rel(0, 9))
	verr, ok := err.(*ValidationError)
	if !ok || verr.Index != 1 {
		t.Errorf("err = %v", err)
	}
}

func TestScannerOffsetBinary(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	total := int64(buf.Len())
	sc := NewScanner(bytes.NewReader(buf.Bytes()))
	if got := sc.Offset(); got != 0 {
		t.Errorf("Offset before first Scan = %d, want 0", got)
	}
	prev := int64(0)
	for sc.Scan() {
		off := sc.Offset()
		if off <= prev {
			t.Fatalf("Offset not strictly increasing: %d after %d (event %d)", off, prev, sc.Index()-1)
		}
		if off > total {
			t.Fatalf("Offset %d beyond input size %d", off, total)
		}
		prev = off
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if prev != total {
		t.Errorf("final Offset = %d, want %d (whole input consumed)", prev, total)
	}
}

func TestScannerOffsetText(t *testing.T) {
	in := "# comment\nwr 0 x1\n\nrd 1 x1\n"
	sc := NewScanner(strings.NewReader(in))
	var offs []int64
	for sc.Scan() {
		offs = append(offs, sc.Offset())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(offs) != 2 {
		t.Fatalf("scanned %d events, want 2", len(offs))
	}
	if offs[0] <= 0 || offs[1] <= offs[0] || offs[1] > int64(len(in)) {
		t.Errorf("offsets %v not increasing within input of %d bytes", offs, len(in))
	}
}

func TestScannerOffsetOnTruncation(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	cut := raw[:len(raw)-1] // tear the last event
	sc := NewScanner(bytes.NewReader(cut))
	for sc.Scan() {
	}
	err := sc.Err()
	if err == nil {
		t.Fatal("truncated stream scanned cleanly")
	}
	if !strings.Contains(err.Error(), "at byte") {
		t.Errorf("truncation error %q does not report a byte position", err)
	}
	if off := sc.Offset(); off > int64(len(cut)) {
		t.Errorf("Offset %d beyond truncated input size %d", off, len(cut))
	}
}

// TestScannerFastPathMatchesSlowPath runs the fuzz target's comparison
// on deterministic inputs: a binary trace longer than the Scanner's
// buffer (so events straddle its edge), every truncation and single-byte
// corruption of a short one, and the text encoding.
func TestScannerFastPathMatchesSlowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	long := randomTrace(rng, 30000)
	for i, e := range long {
		if e.Kind != Fork && e.Kind != Join {
			long[i].Target <<= uint(rng.Intn(40)) // multi-byte varints
		}
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, long); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 1<<16 {
		t.Fatalf("trace of %d bytes does not overflow the scanner buffer", buf.Len())
	}
	compareScanPaths(t, buf.Bytes())

	buf.Reset()
	if err := WriteBinary(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()
	for cut := 0; cut <= len(short); cut++ {
		compareScanPaths(t, short[:cut])
	}
	for i := len(binaryMagic); i < len(short); i++ {
		for _, b := range []byte{0x00, 0x7f, 0x80, 0xff, byte(numKinds)} {
			bad := bytes.Clone(short)
			bad[i] = b
			compareScanPaths(t, bad)
		}
	}

	buf.Reset()
	if err := WriteText(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	compareScanPaths(t, buf.Bytes())
}
