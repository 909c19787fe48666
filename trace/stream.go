package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Scanner reads a trace incrementally from a reader, auto-detecting the
// text or binary format, so arbitrarily long traces can be analyzed
// without being memory-resident. The zero value is not usable; call
// NewScanner.
type Scanner struct {
	src     *countingReader
	br      *bufio.Reader
	binary  bool
	started bool
	lineno  int
	index   int
	err     error
	cur     Event
}

// countingReader counts bytes handed to the buffering layer so the
// scanner can report byte offsets: consumed = read - still buffered.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// NewScanner returns a scanner over r.
func NewScanner(r io.Reader) *Scanner {
	cr := &countingReader{r: r}
	return &Scanner{src: cr, br: bufio.NewReaderSize(cr, 1<<16)}
}

// Offset returns the number of input bytes consumed so far: after a
// successful Scan it is the offset just past the returned event, and
// after a failed Scan it positions the error in the byte stream. The
// network ingestion tier uses it to enforce per-frame byte budgets and
// to report positions of decode errors.
func (s *Scanner) Offset() int64 { return s.src.n - int64(s.br.Buffered()) }

// Scan advances to the next event; it returns false at end of input or
// on error (check Err).
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	if !s.started {
		s.started = true
		isBin, err := Sniff(s.br)
		if err != nil {
			s.err = err
			return false
		}
		s.binary = isBin
		if isBin {
			if _, err := s.br.Discard(len(binaryMagic)); err != nil {
				s.err = err
				return false
			}
		}
	}
	var (
		e   Event
		err error
	)
	if s.binary {
		e, err = s.scanBinary()
	} else {
		e, err = s.scanText()
	}
	if err != nil {
		if !errors.Is(err, io.EOF) {
			s.err = err
		}
		return false
	}
	s.cur = e
	s.index++
	return true
}

// Event returns the event read by the last successful Scan.
func (s *Scanner) Event() Event { return s.cur }

// Index returns the number of events scanned so far (the last event's
// position is Index()-1).
func (s *Scanner) Index() int { return s.index }

// Err returns the first error encountered (nil at clean end of input).
func (s *Scanner) Err() error { return s.err }

// all scans the rest of the input into one trace.
func (s *Scanner) all() (Trace, error) {
	var tr Trace
	for s.Scan() {
		tr = append(tr, s.cur)
	}
	if s.err != nil {
		return nil, s.err
	}
	return tr, nil
}

func (s *Scanner) scanText() (Event, error) {
	for {
		line, err := s.br.ReadString('\n')
		if line == "" && err != nil {
			return Event{}, err
		}
		s.lineno++
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			if err != nil {
				return Event{}, err
			}
			continue
		}
		e, perr := parseLine(trimmed)
		if perr != nil {
			return Event{}, fmt.Errorf("trace: line %d: %w", s.lineno, perr)
		}
		return e, nil
	}
}

func (s *Scanner) scanBinary() (Event, error) {
	// Fast path: a plain event that lies wholly inside the buffer is
	// decoded straight from it. Barrier and channel events, events that
	// straddle the buffer's end, and every malformed event take the
	// byte-at-a-time path below, which owns the error text and positions.
	if buf, _ := s.br.Peek(s.br.Buffered()); len(buf) >= 3 {
		if e, n := decodePlain(buf); n > 0 {
			s.br.Discard(n) // cannot fail: the n bytes are buffered
			return e, nil
		}
	}
	start := s.Offset()
	kb, err := s.br.ReadByte()
	if err != nil {
		return Event{}, err // clean EOF at an event boundary
	}
	// From here on the event has started: a mid-event EOF is a truncation
	// and is reported with the position of the incomplete event.
	pos := func(err error) error {
		return fmt.Errorf("trace: event %d: %w (at byte %d)", s.index, noEOF(err), start)
	}
	if Kind(kb) >= numKinds {
		return Event{}, fmt.Errorf("trace: event %d: bad kind %d (at byte %d)", s.index, kb, start)
	}
	tid, err := binary.ReadUvarint(s.br)
	if err != nil {
		return Event{}, pos(err)
	}
	if tid > maxWireTid {
		return Event{}, fmt.Errorf("trace: event %d: thread id %d out of range [0, %d]", s.index, tid, maxWireTid)
	}
	target, err := binary.ReadUvarint(s.br)
	if err != nil {
		return Event{}, pos(err)
	}
	e := Event{Kind: Kind(kb), Tid: int32(tid), Target: target}
	if (e.Kind == Fork || e.Kind == Join) && target > maxWireTid {
		return Event{}, fmt.Errorf("trace: event %d: thread id %d out of range [0, %d]", s.index, target, maxWireTid)
	}
	if e.Kind == BarrierRelease {
		n, err := binary.ReadUvarint(s.br)
		if err != nil {
			return Event{}, pos(err)
		}
		if n > 1<<20 {
			return Event{}, fmt.Errorf("trace: event %d: absurd barrier size %d", s.index, n)
		}
		e.Tids = make([]int32, n)
		for i := range e.Tids {
			t, err := binary.ReadUvarint(s.br)
			if err != nil {
				return Event{}, pos(err)
			}
			if t > maxWireTid {
				return Event{}, fmt.Errorf("trace: event %d: thread id %d out of range [0, %d]", s.index, t, maxWireTid)
			}
			e.Tids[i] = int32(t)
		}
	}
	if e.Kind == ChanSend || e.Kind == ChanRecv || e.Kind == ChanClose {
		c, err := binary.ReadUvarint(s.br)
		if err != nil {
			return Event{}, pos(err)
		}
		if c > uint64(MaxChanCap) {
			return Event{}, fmt.Errorf("trace: event %d: channel capacity %d out of range [0, %d]", s.index, c, MaxChanCap)
		}
		e.Cap = int32(c)
	}
	return e, nil
}

// decodePlain decodes the event at the head of buf when it is a complete,
// well-formed plain event (neither a barrier nor a channel event) and
// returns its encoded length; otherwise it returns 0.
func decodePlain(buf []byte) (Event, int) {
	k := Kind(buf[0])
	if k >= numKinds || k == BarrierRelease || k == ChanSend || k == ChanRecv || k == ChanClose {
		return Event{}, 0
	}
	tid, n := binary.Uvarint(buf[1:])
	if n <= 0 || tid > maxWireTid {
		return Event{}, 0
	}
	target, m := binary.Uvarint(buf[1+n:])
	if m <= 0 || (k == Fork || k == Join) && target > maxWireTid {
		return Event{}, 0
	}
	return Event{Kind: k, Tid: int32(tid), Target: target}, 1 + n + m
}

// noEOF converts a mid-event EOF into an unexpected-EOF error so
// truncation is reported rather than treated as a clean end.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Format selects a trace encoding for the streaming writer.
type Format uint8

const (
	// Text is the human-editable line format.
	Text Format = iota
	// Binary is the compact varint format.
	Binary
)

// Writer encodes events incrementally. Close (or Flush) must be called
// to drain the buffer.
type Writer struct {
	bw     *bufio.Writer
	format Format
	wrote  bool
	count  int
	buf    [binary.MaxVarintLen64]byte
}

// NewWriter returns a streaming trace writer in the given format.
func NewWriter(w io.Writer, format Format) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), format: format}
}

// Write appends one event. Events with thread ids that cannot round-trip
// through the codec are rejected with a positional error.
func (w *Writer) Write(e Event) error {
	if err := checkWireTids(w.count, e); err != nil {
		return err
	}
	w.count++
	if !w.wrote {
		w.wrote = true
		if w.format == Binary {
			if _, err := w.bw.WriteString(binaryMagic); err != nil {
				return err
			}
		}
	}
	if w.format == Text {
		if _, err := w.bw.WriteString(e.String()); err != nil {
			return err
		}
		return w.bw.WriteByte('\n')
	}
	if err := w.bw.WriteByte(byte(e.Kind)); err != nil {
		return err
	}
	if err := w.uvarint(uint64(e.Tid)); err != nil {
		return err
	}
	if err := w.uvarint(e.Target); err != nil {
		return err
	}
	if e.Kind == BarrierRelease {
		if err := w.uvarint(uint64(len(e.Tids))); err != nil {
			return err
		}
		for _, t := range e.Tids {
			if err := w.uvarint(uint64(t)); err != nil {
				return err
			}
		}
	}
	if e.Kind == ChanSend || e.Kind == ChanRecv || e.Kind == ChanClose {
		if err := w.uvarint(uint64(e.Cap)); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) uvarint(x uint64) error {
	n := binary.PutUvarint(w.buf[:], x)
	_, err := w.bw.Write(w.buf[:n])
	return err
}

// Flush drains buffered output. An empty binary trace still gets its
// magic so the output is a valid trace file.
func (w *Writer) Flush() error {
	if !w.wrote && w.format == Binary {
		w.wrote = true
		if _, err := w.bw.WriteString(binaryMagic); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}
