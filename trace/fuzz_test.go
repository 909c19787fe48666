package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/iotest"
)

// FuzzReadText: arbitrary text input must never panic, and anything that
// parses must round-trip through the writer byte-identically after one
// normalization pass.
func FuzzReadText(f *testing.F) {
	f.Add("rd 0 x1\nwr 1 x2\n")
	f.Add("# comment\nacq 0 m1\nrel 0 m1\n")
	f.Add("barrier b0 0 1 2\nfork 0 1\njoin 0 1\n")
	f.Add("txbegin 0\nvrd 1 v2\nvwr 1 v2\ntxend 0\n")
	f.Add("wait 0 m1\nnotify 0 m1\n")
	f.Add("chsend 0 c1 0\nchrecv 1 c1 0\nchclose 0 c1 0\n")
	f.Add("chsend 0 c2 3\nchrecv 1 c2 3\n")
	f.Add("rd")
	f.Add("rd 0 x99999999999999999999")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadText(bytes.NewReader([]byte(in)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteText(&out, tr); err != nil {
			t.Fatalf("WriteText on parsed trace: %v", err)
		}
		tr2, err := ReadText(&out)
		if err != nil {
			t.Fatalf("re-parse of written trace: %v", err)
		}
		if len(tr) != len(tr2) || (len(tr) > 0 && !reflect.DeepEqual(tr, tr2)) {
			t.Fatalf("round trip changed trace:\n%v\n%v", tr, tr2)
		}
	})
}

// FuzzReadBinary: arbitrary bytes must never panic or over-allocate; any
// trace that decodes must re-encode and decode identically.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteBinary(&seed, Trace{Rd(0, 1), Barrier(0, 0, 1), ForkOf(0, 1)})
	f.Add(seed.Bytes())
	var chseed bytes.Buffer
	_ = WriteBinary(&chseed, Trace{ChSend(0, 1, 2), ChRecv(1, 1, 2), ChClose(0, 1, 2)})
	f.Add(chseed.Bytes())
	f.Add([]byte("FTRK1\n"))
	f.Add([]byte("FTRK1\n\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, tr); err != nil {
			t.Fatalf("WriteBinary on decoded trace: %v", err)
		}
		tr2, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(tr) != len(tr2) || (len(tr) > 0 && !reflect.DeepEqual(tr, tr2)) {
			t.Fatalf("round trip changed trace")
		}
	})
}

// FuzzScannerMatchesBatch: the Scanner's fast path must decode exactly
// what its byte-at-a-time path decodes. iotest.OneByteReader never
// leaves the 3 bytes of the smallest event buffered, so reading through
// it always takes the slow path; the two runs must agree on every event,
// Index, Offset and the error text.
func FuzzScannerMatchesBatch(f *testing.F) {
	f.Add("rd 0 x1\nwr 1 x2\nbarrier b0 0 1\n")
	f.Add("bogus\n")
	var seed bytes.Buffer
	_ = WriteBinary(&seed, sampleTrace())
	f.Add(seed.String())
	f.Add(seed.String()[:seed.Len()-1])
	f.Add("FTRK1\n\x00\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01")
	f.Add("FTRK1\n\x04\x00\x80\x80\x80\x80\x08")
	f.Fuzz(func(t *testing.T, in string) {
		compareScanPaths(t, []byte(in))
	})
}

// compareScanPaths scans in twice, once through iotest.OneByteReader,
// and fails on the first difference between the runs.
func compareScanPaths(t *testing.T, in []byte) {
	t.Helper()
	fast := NewScanner(bytes.NewReader(in))
	slow := NewScanner(iotest.OneByteReader(bytes.NewReader(in)))
	for {
		ok := fast.Scan()
		if ok != slow.Scan() {
			t.Fatalf("event %d: fast path scanned %v, slow path %v", fast.Index(), ok, !ok)
		}
		if fast.Index() != slow.Index() || fast.Offset() != slow.Offset() {
			t.Fatalf("position differs: fast index %d offset %d, slow index %d offset %d",
				fast.Index(), fast.Offset(), slow.Index(), slow.Offset())
		}
		if !ok {
			break
		}
		if !reflect.DeepEqual(fast.Event(), slow.Event()) {
			t.Fatalf("event %d differs: fast %v, slow %v", fast.Index()-1, fast.Event(), slow.Event())
		}
	}
	if fe, se := fmt.Sprint(fast.Err()), fmt.Sprint(slow.Err()); fe != se {
		t.Fatalf("errors differ: fast %q, slow %q", fe, se)
	}
}
