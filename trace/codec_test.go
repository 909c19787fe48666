package trace

import (
	"bufio"
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() Trace {
	return Trace{
		ForkOf(0, 1),
		Event{Kind: TxBegin, Tid: 1},
		Wr(1, 3),
		Rd(1, 3),
		Acq(1, 0),
		Rel(1, 0),
		VWr(1, 2),
		VRd(0, 2),
		Event{Kind: Wait, Tid: 0, Target: 9},
		Event{Kind: Notify, Tid: 1, Target: 9},
		Barrier(4, 0, 1),
		ChSend(1, 5, 0),
		ChRecv(0, 5, 0),
		ChSend(1, 6, 3),
		ChClose(1, 6, 3),
		ChRecv(0, 6, 3),
		Event{Kind: TxEnd, Tid: 1},
		JoinOf(0, 1),
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, tr)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, tr)
	}
}

func TestReadTextCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nrd 0 x1\n   \n# another\nwr 1 x2\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Trace{Rd(0, 1), Wr(1, 2)}
	if !reflect.DeepEqual(tr, want) {
		t.Errorf("got %v, want %v", tr, want)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"frobnicate 0 x1",     // unknown op
		"rd 0",                // missing operand
		"rd 0 m1",             // wrong sigil
		"rd zero x1",          // bad tid
		"rd -1 x1",            // negative tid
		"fork 0 x1",           // fork target is a tid, not a var
		"barrier b0",          // no participants
		"barrier x0 1",        // wrong sigil
		"txbegin 0 extra",     // too many operands
		"acq 0 m1 garbage",    // too many operands
		"chsend 0 c1",         // missing capacity
		"chrecv 0 x1 0",       // wrong sigil
		"chclose 0 c1 -1",     // negative capacity
		"chsend 0 c1 9999999", // capacity above MaxChanCap
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText(%q) succeeded, want error", in)
		}
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("BOGUS\n")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("FTRK1\n\xff")); err == nil {
		t.Error("bad kind accepted")
	}
	// Truncated event payload.
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Trace{Rd(0, 1)}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(b[:len(b)-1])); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestSniff(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Trace{Rd(0, 1)}); err != nil {
		t.Fatal(err)
	}
	isBin, err := Sniff(bufio.NewReader(&buf))
	if err != nil || !isBin {
		t.Errorf("Sniff(binary) = %v,%v", isBin, err)
	}
	isBin, err = Sniff(bufio.NewReader(strings.NewReader("rd 0 x1\n")))
	if err != nil || isBin {
		t.Errorf("Sniff(text) = %v,%v", isBin, err)
	}
	isBin, err = Sniff(bufio.NewReader(strings.NewReader("")))
	if err != nil || isBin {
		t.Errorf("Sniff(empty) = %v,%v", isBin, err)
	}
}

// randomTrace produces an arbitrary (not necessarily feasible) trace for
// codec round-trip property tests; codecs must not care about feasibility.
func randomTrace(rng *rand.Rand, n int) Trace {
	tr := make(Trace, n)
	for i := range tr {
		k := Kind(rng.Intn(int(numKinds)))
		e := Event{Kind: k, Tid: int32(rng.Intn(64)), Target: uint64(rng.Intn(1 << 16))}
		if k == TxBegin || k == TxEnd {
			e.Target = 0 // tx boundaries carry no target
		}
		if k == BarrierRelease {
			e.Tid = 0
			e.Tids = make([]int32, 1+rng.Intn(4))
			for j := range e.Tids {
				e.Tids[j] = int32(rng.Intn(64))
			}
		}
		if k == ChanSend || k == ChanRecv || k == ChanClose {
			e.Cap = int32(rng.Intn(8))
		}
		tr[i] = e
	}
	return tr
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, int(size)%64+1)

		var tb, bb bytes.Buffer
		if err := WriteText(&tb, tr); err != nil {
			return false
		}
		fromText, err := ReadText(&tb)
		if err != nil {
			t.Logf("text decode: %v", err)
			return false
		}
		if err := WriteBinary(&bb, tr); err != nil {
			return false
		}
		fromBin, err := ReadBinary(&bb)
		if err != nil {
			t.Logf("binary decode: %v", err)
			return false
		}
		return reflect.DeepEqual(fromText, tr) && reflect.DeepEqual(fromBin, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBinaryIsSmallerThanText(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := randomTrace(rng, 4096)
	var tb, bb bytes.Buffer
	if err := WriteText(&tb, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, tr); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= tb.Len() {
		t.Errorf("binary (%d bytes) not smaller than text (%d bytes)", bb.Len(), tb.Len())
	}
}

// TestUnassignedKindRejected pins the forward-compatibility contract that
// let decoders built before the chan kinds reject them cleanly instead of
// misparsing: any kind byte >= numKinds fails decoding in both the batch
// reader and the scanner with a "bad kind" error.
func TestUnassignedKindRejected(t *testing.T) {
	in := append([]byte(binaryMagic), byte(numKinds), 0, 0)
	if _, err := ReadBinary(bytes.NewReader(in)); err == nil || !strings.Contains(err.Error(), "bad kind") {
		t.Errorf("ReadBinary(kind %d) = %v, want bad-kind error", numKinds, err)
	}
	sc := NewScanner(bytes.NewReader(in))
	for sc.Scan() {
	}
	if err := sc.Err(); err == nil || !strings.Contains(err.Error(), "bad kind") {
		t.Errorf("Scanner(kind %d) = %v, want bad-kind error", numKinds, err)
	}
	// And the text mnemonics for the chan kinds were never parseable by the
	// pre-chan grammar: KindFromString is the only gate, so misparsing was
	// impossible — an unknown mnemonic is a hard error.
	if _, err := ReadText(strings.NewReader("chbogus 0 c1 0\n")); err == nil {
		t.Error("unknown chan-like mnemonic accepted")
	}
}
