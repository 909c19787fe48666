package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements two interchangeable on-disk encodings for traces.
//
// The text format is line-oriented and human-editable: one event per line,
// "<kind> <tid> <target>" with sigils on targets (x=variable, m=lock,
// v=volatile, b=barrier), e.g.
//
//	fork 0 1
//	wr 1 x3
//	rel 1 m0
//	barrier b0 0 1
//
// Blank lines and lines starting with '#' are ignored.
//
// The binary format is a compact varint stream for large generated traces:
// the magic "FTRK1\n", then per event: kind byte, tid uvarint, target
// uvarint, for BarrierRelease a count uvarint followed by the
// participant tids, and for the channel kinds a capacity uvarint.
//
// There is one decoder, the Scanner (stream.go); ReadText and ReadBinary
// are loops over it that collect the whole trace.

const binaryMagic = "FTRK1\n"

// maxWireTid is the largest thread id either codec accepts. Tids are
// int32 in memory; the binary format stores them as uvarints, so without
// this bound a tid >= 2^31 would silently truncate on decode and a
// negative tid would encode as a 10-byte varint that decodes to garbage.
// Both directions reject out-of-range tids with a positional error.
const maxWireTid = uint64(1<<31 - 1)

// checkWireTids rejects events whose thread ids or channel capacities
// cannot round-trip through the codecs: negative tids, fork/join targets
// or barrier participants outside the int32 range, and chan capacities
// outside [0, MaxChanCap]. The index i positions the error in the stream.
func checkWireTids(i int, e Event) error {
	if e.Kind != BarrierRelease && e.Tid < 0 {
		return fmt.Errorf("trace: event %d: negative thread id %d", i, e.Tid)
	}
	switch e.Kind {
	case Fork, Join:
		if e.Target > maxWireTid {
			return fmt.Errorf("trace: event %d: thread id %d out of range [0, %d]", i, e.Target, maxWireTid)
		}
	case BarrierRelease:
		for _, t := range e.Tids {
			if t < 0 {
				return fmt.Errorf("trace: event %d: negative thread id %d", i, t)
			}
		}
	case ChanSend, ChanRecv, ChanClose:
		if e.Cap < 0 || e.Cap > MaxChanCap {
			return fmt.Errorf("trace: event %d: channel capacity %d out of range [0, %d]", i, e.Cap, MaxChanCap)
		}
	}
	return nil
}

// WriteText encodes the trace in the text format.
func WriteText(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	for i, e := range tr {
		if err := checkWireTids(i, e); err != nil {
			return err
		}
		if _, err := bw.WriteString(e.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText decodes a text-format trace.
func ReadText(r io.Reader) (Trace, error) {
	s := NewScanner(r)
	s.started = true // text mode: no format sniffing
	return s.all()
}

func parseLine(line string) (Event, error) {
	fields := strings.Fields(line)
	kind, ok := KindFromString(fields[0])
	if !ok {
		return Event{}, fmt.Errorf("unknown operation %q", fields[0])
	}
	var e Event
	e.Kind = kind

	parseTarget := func(s, sigil string) (uint64, error) {
		if !strings.HasPrefix(s, sigil) {
			return 0, fmt.Errorf("target %q must start with %q", s, sigil)
		}
		return strconv.ParseUint(s[len(sigil):], 10, 64)
	}
	parseTid := func(s string) (int32, error) {
		n, err := strconv.ParseInt(s, 10, 32)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad thread id %q", s)
		}
		return int32(n), nil
	}

	switch kind {
	case Read, Write, VolatileRead, VolatileWrite, Acquire, Release, Wait, Notify:
		if len(fields) != 3 {
			return Event{}, fmt.Errorf("%s needs 2 operands", kind)
		}
		tid, err := parseTid(fields[1])
		if err != nil {
			return Event{}, err
		}
		sigil := "x"
		switch kind {
		case VolatileRead, VolatileWrite:
			sigil = "v"
		case Acquire, Release, Wait, Notify:
			sigil = "m"
		}
		target, err := parseTarget(fields[2], sigil)
		if err != nil {
			return Event{}, err
		}
		e.Tid, e.Target = tid, target
	case Fork, Join:
		if len(fields) != 3 {
			return Event{}, fmt.Errorf("%s needs 2 operands", kind)
		}
		tid, err := parseTid(fields[1])
		if err != nil {
			return Event{}, err
		}
		u, err := parseTid(fields[2])
		if err != nil {
			return Event{}, err
		}
		e.Tid, e.Target = tid, uint64(u)
	case TxBegin, TxEnd:
		if len(fields) != 2 {
			return Event{}, fmt.Errorf("%s needs 1 operand", kind)
		}
		tid, err := parseTid(fields[1])
		if err != nil {
			return Event{}, err
		}
		e.Tid = tid
	case ChanSend, ChanRecv, ChanClose:
		if len(fields) != 4 {
			return Event{}, fmt.Errorf("%s needs 3 operands", kind)
		}
		tid, err := parseTid(fields[1])
		if err != nil {
			return Event{}, err
		}
		target, err := parseTarget(fields[2], "c")
		if err != nil {
			return Event{}, err
		}
		capv, err := strconv.ParseInt(fields[3], 10, 32)
		if err != nil || capv < 0 || int32(capv) > MaxChanCap {
			return Event{}, fmt.Errorf("bad channel capacity %q", fields[3])
		}
		e.Tid, e.Target, e.Cap = tid, target, int32(capv)
	case BarrierRelease:
		if len(fields) < 3 {
			return Event{}, fmt.Errorf("barrier needs an id and at least one thread")
		}
		target, err := parseTarget(fields[1], "b")
		if err != nil {
			return Event{}, err
		}
		e.Target = target
		for _, f := range fields[2:] {
			t, err := parseTid(f)
			if err != nil {
				return Event{}, err
			}
			e.Tids = append(e.Tids, t)
		}
	default:
		return Event{}, fmt.Errorf("unhandled operation %q", fields[0])
	}
	return e, nil
}

// WriteBinary encodes the trace in the binary format.
func WriteBinary(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		_, err := bw.Write(buf[:n])
		return err
	}
	for i, e := range tr {
		if err := checkWireTids(i, e); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(e.Kind)); err != nil {
			return err
		}
		if err := putUvarint(uint64(e.Tid)); err != nil {
			return err
		}
		if err := putUvarint(e.Target); err != nil {
			return err
		}
		if e.Kind == BarrierRelease {
			if err := putUvarint(uint64(len(e.Tids))); err != nil {
				return err
			}
			for _, t := range e.Tids {
				if err := putUvarint(uint64(t)); err != nil {
					return err
				}
			}
		}
		if e.Kind == ChanSend || e.Kind == ChanRecv || e.Kind == ChanClose {
			if err := putUvarint(uint64(e.Cap)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a binary-format trace, which must start with the
// binary magic.
func ReadBinary(r io.Reader) (Trace, error) {
	s := NewScanner(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(s.br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	s.started, s.binary = true, true
	return s.all()
}

// Sniff reports whether the reader starts with the binary magic, without
// consuming input. It is used by cmd/racedetect to auto-detect the format.
func Sniff(r *bufio.Reader) (binaryFormat bool, err error) {
	head, err := r.Peek(len(binaryMagic))
	if err != nil && err != io.EOF {
		return false, err
	}
	return string(head) == binaryMagic, nil
}
