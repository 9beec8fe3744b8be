package wire

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTupleRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := []Tuple{
		{Base: false, TS: 123, Key: 7, Val: 3.5},
		{Base: true, TS: -9, Key: 1<<64 - 1, Val: math.Inf(1)},
		{Base: true, TS: 0, Key: 0, Val: 0},
	}
	for _, tp := range in {
		if err := w.WriteTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range in {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		wantKind := TagProbe
		if want.Base {
			wantKind = TagBase
		}
		if m.Kind != wantKind || m.Tuple != want {
			t.Fatalf("frame %d: got %+v want %+v", i, m.Tuple, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBaseIDRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := []Tuple{
		{Base: true, TS: 123, Key: 7, Val: 3.5, ID: 42},
		{Base: true, TS: -9, Key: 1<<64 - 1, Val: math.Inf(1), ID: 1<<64 - 1},
		{Base: true, TS: 0, Key: 0, Val: 0, ID: 0},
	}
	for _, tp := range in {
		if err := w.WriteBaseID(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range in {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Kind != TagBaseID || m.Tuple != want {
			t.Fatalf("frame %d: got %+v want %+v", i, m.Tuple, want)
		}
	}
	// A truncated baseid frame must fail like the other fixed frames.
	buf.Reset()
	w = NewWriter(&buf)
	w.WriteBaseID(Tuple{Base: true, TS: 1, Key: 2, Val: 3, ID: 4})
	w.Flush()
	short := buf.Bytes()[:20]
	if _, err := NewReader(bytes.NewReader(short)).Read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := Result{Seq: 42, TS: 1000, Key: 5, Agg: -2.25, Matches: 17}
	if err := w.WriteResult(want); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	m, err := NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != TagResult || m.Result != want {
		t.Fatalf("got %+v", m.Result)
	}
}

func TestFlushAndErrorFrames(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteFlush()
	w.WriteError("boom")
	w.Flush()
	r := NewReader(&buf)
	m, err := r.Read()
	if err != nil || m.Kind != TagFlush {
		t.Fatalf("flush: %+v %v", m, err)
	}
	m, err = r.Read()
	if err != nil || m.Kind != TagError || m.Err != "boom" {
		t.Fatalf("error: %+v %v", m, err)
	}
}

func TestNackRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := Nack{Seq: 77, Code: NackDeadline}
	if err := w.WriteNack(want); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	m, err := NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != TagNack || m.Nack != want {
		t.Fatalf("got %+v", m.Nack)
	}
	if m.Nack.Reason() != "deadline" {
		t.Fatalf("reason = %q", m.Nack.Reason())
	}
	if (Nack{Code: NackOverload}).Reason() != "overload" {
		t.Fatal("overload reason")
	}
}

func TestErrorTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteError(strings.Repeat("x", MaxErrorLen+100))
	w.Flush()
	m, err := NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Err) != MaxErrorLen {
		t.Fatalf("error message length %d", len(m.Err))
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteTuple(Tuple{TS: 1, Key: 2, Val: 3})
	w.Flush()
	short := buf.Bytes()[:10]
	if _, err := NewReader(bytes.NewReader(short)).Read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestUnknownTag(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{0xFF})).Read(); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

func TestOversizedErrorFrameRejected(t *testing.T) {
	// Hand-craft an error frame header claiming a huge length.
	raw := []byte{TagError, 0xFF, 0xFF}
	if _, err := NewReader(bytes.NewReader(raw)).Read(); err == nil {
		t.Fatal("oversized error frame accepted")
	}
}

// TestQuickRoundTrip property-tests tuple and result round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(base bool, ts int64, key uint64, val float64, seq uint64, matches int64) bool {
		if math.IsNaN(val) {
			val = 0 // NaN != NaN would fail equality, not the codec
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		tp := Tuple{Base: base, TS: ts, Key: key, Val: val}
		rs := Result{Seq: seq, TS: ts, Key: key, Agg: val, Matches: matches}
		w.WriteTuple(tp)
		w.WriteResult(rs)
		w.Flush()
		r := NewReader(&buf)
		m1, err1 := r.Read()
		m2, err2 := r.Read()
		return err1 == nil && err2 == nil && m1.Tuple == tp && m2.Result == rs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBufferedCoversClientFrames: MaxClientFrame is the longest client
// frame, so while Buffered reports at least that many bytes a Read never
// needs the stream; the server's batching reader relies on it.
func TestBufferedCoversClientFrames(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteBaseID(Tuple{Base: true, TS: 1, ID: 9})
	w.Flush()
	if buf.Len() != MaxClientFrame {
		t.Fatalf("baseid frame is %d bytes, MaxClientFrame %d", buf.Len(), MaxClientFrame)
	}
	w.WriteTuple(Tuple{TS: 2})
	w.WriteTuple(Tuple{Base: true, TS: 3})
	w.WriteFlush()
	w.Flush()
	total := buf.Len()
	r := NewReader(&buf)
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	// The first Read buffered the whole stream; each later frame is
	// decoded from the buffer alone.
	if got := r.Buffered(); got != total-MaxClientFrame {
		t.Fatalf("Buffered = %d, want %d", got, total-MaxClientFrame)
	}
	for _, n := range []int{25, 25, 1} {
		before := r.Buffered()
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
		if used := before - r.Buffered(); used != n || used > MaxClientFrame {
			t.Fatalf("frame used %d buffered bytes, want %d (at most MaxClientFrame)", used, n)
		}
	}
}
