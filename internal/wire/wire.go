// Package wire defines the binary protocol the serving layer (package
// server, cmd/oijd) speaks: fixed-layout little-endian frames carrying
// stream tuples from clients and join results back — the OpenMLDB-style
// "feature request over the network" path for the interval join.
//
// Every frame starts with a one-byte type tag. Data frames have fixed
// layouts, so encode/decode is allocation-free:
//
//	probe  : tag(1) ts(8) key(8) val(8)                          = 25 B
//	base   : tag(1) ts(8) key(8) val(8)                          = 25 B
//	baseid : tag(1) ts(8) key(8) val(8) id(8)                    = 33 B
//	result : tag(1) seq(8) ts(8) key(8) agg(8) matches(8)        = 41 B
//	flush  : tag(1)                                              =  1 B
//	error  : tag(1) len(2) message(len)
//	nack   : tag(1) seq(8) code(1)                               = 10 B
//
// A client streams probe/base frames; the server answers every base frame
// with exactly one result frame (ordering between different base frames is
// not guaranteed) — or, under overload control, with exactly one nack frame
// carrying the same sequence number and a reason code, so a rejected
// request fails fast instead of queueing. baseid is a base frame that also
// carries the client's request id explicitly, so the client-observed
// latency for a request can be correlated with the server's /tracez span
// for the same id; the server answers it with the same id as the result's
// seq. flush asks the server to close all pending windows and answer
// outstanding bases; it is also implied by closing the write side.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"oij/internal/tuple"
)

// Frame type tags.
const (
	TagProbe  byte = 0x01
	TagBase   byte = 0x02
	TagResult byte = 0x03
	TagFlush  byte = 0x04
	TagError  byte = 0x05
	TagNack   byte = 0x06
	TagBaseID byte = 0x07
)

// Nack reason codes.
const (
	// NackOverload: the request was rejected at admission because the
	// server's ingest path is saturated (admission policy "reject").
	NackOverload byte = 0x01
	// NackDeadline: the request waited longer than the configured
	// per-request deadline before reaching the engine.
	NackDeadline byte = 0x02
	// NackNotPrimary: the node is a replication standby; it applies the
	// primary's log but answers no feature requests. Clients retry against
	// the next address in their failover list.
	NackNotPrimary byte = 0x03
	// NackFenced: the node was the primary but lost its lease (a standby
	// has promoted, or is presumed to be promoting); it refuses writes so
	// the promoted side's log stays the single history.
	NackFenced byte = 0x04
)

// MaxErrorLen bounds error-frame messages.
const MaxErrorLen = 1024

// MaxClientFrame is the length of the longest frame a client sends (baseid),
// so a Reader holding at least this many Buffered bytes decodes its next
// client frame without blocking.
const MaxClientFrame = 33

// Tuple is a decoded probe or base frame.
type Tuple struct {
	Base bool
	TS   tuple.Time
	Key  tuple.Key
	Val  float64
	// ID is the client-chosen request id carried by baseid frames (0 for
	// probe and plain base frames, where the server assigns sequence
	// numbers in arrival order instead).
	ID uint64
}

// Result is a decoded result frame.
type Result struct {
	Seq     uint64
	TS      tuple.Time
	Key     tuple.Key
	Agg     float64
	Matches int64
}

// Nack is a decoded nack frame: the server's typed rejection of the base
// request carrying the same session-local sequence number.
type Nack struct {
	Seq  uint64
	Code byte
}

// Reason renders the nack code for operators and error messages.
func (n Nack) Reason() string {
	switch n.Code {
	case NackOverload:
		return "overload"
	case NackDeadline:
		return "deadline"
	case NackNotPrimary:
		return "not-primary"
	case NackFenced:
		return "fenced"
	default:
		return fmt.Sprintf("code 0x%02x", n.Code)
	}
}

// Message is a decoded frame: exactly one of the fields is meaningful,
// selected by Kind.
type Message struct {
	Kind   byte // TagProbe, TagBase, TagResult, TagFlush, TagError or TagNack
	Tuple  Tuple
	Result Result
	Nack   Nack
	Err    string
}

// Writer encodes frames onto a buffered stream. Not safe for concurrent
// use.
type Writer struct {
	w   *bufio.Writer
	buf [41]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// WriteTuple emits a probe or base frame.
func (w *Writer) WriteTuple(t Tuple) error {
	b := w.buf[:25]
	if t.Base {
		b[0] = TagBase
	} else {
		b[0] = TagProbe
	}
	binary.LittleEndian.PutUint64(b[1:], uint64(t.TS))
	binary.LittleEndian.PutUint64(b[9:], uint64(t.Key))
	binary.LittleEndian.PutUint64(b[17:], math.Float64bits(t.Val))
	_, err := w.w.Write(b)
	return err
}

// WriteBaseID emits a base frame carrying an explicit request id.
func (w *Writer) WriteBaseID(t Tuple) error {
	b := w.buf[:33]
	b[0] = TagBaseID
	binary.LittleEndian.PutUint64(b[1:], uint64(t.TS))
	binary.LittleEndian.PutUint64(b[9:], uint64(t.Key))
	binary.LittleEndian.PutUint64(b[17:], math.Float64bits(t.Val))
	binary.LittleEndian.PutUint64(b[25:], t.ID)
	_, err := w.w.Write(b)
	return err
}

// WriteResult emits a result frame.
func (w *Writer) WriteResult(r Result) error {
	b := w.buf[:41]
	b[0] = TagResult
	binary.LittleEndian.PutUint64(b[1:], r.Seq)
	binary.LittleEndian.PutUint64(b[9:], uint64(r.TS))
	binary.LittleEndian.PutUint64(b[17:], uint64(r.Key))
	binary.LittleEndian.PutUint64(b[25:], math.Float64bits(r.Agg))
	binary.LittleEndian.PutUint64(b[33:], uint64(r.Matches))
	_, err := w.w.Write(b)
	return err
}

// WriteFlush emits a flush frame.
func (w *Writer) WriteFlush() error {
	return w.w.WriteByte(TagFlush)
}

// WriteNack emits a nack frame.
func (w *Writer) WriteNack(n Nack) error {
	b := w.buf[:10]
	b[0] = TagNack
	binary.LittleEndian.PutUint64(b[1:], n.Seq)
	b[9] = n.Code
	_, err := w.w.Write(b)
	return err
}

// WriteError emits an error frame (message truncated to MaxErrorLen).
func (w *Writer) WriteError(msg string) error {
	if len(msg) > MaxErrorLen {
		msg = msg[:MaxErrorLen]
	}
	b := w.buf[:3]
	b[0] = TagError
	binary.LittleEndian.PutUint16(b[1:], uint16(len(msg)))
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	_, err := w.w.WriteString(msg)
	return err
}

// Flush flushes the underlying buffer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes frames from a buffered stream. Not safe for concurrent
// use.
type Reader struct {
	r   *bufio.Reader
	buf [40]byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Buffered returns the number of bytes received and not yet decoded; a
// Read of a frame no longer than that does not block on the stream.
func (r *Reader) Buffered() int { return r.r.Buffered() }

// Read decodes the next frame. It returns io.EOF at a clean end of stream
// and io.ErrUnexpectedEOF on a truncated frame.
func (r *Reader) Read() (Message, error) {
	tag, err := r.r.ReadByte()
	if err != nil {
		return Message{}, err
	}
	switch tag {
	case TagProbe, TagBase:
		b := r.buf[:24]
		if _, err := io.ReadFull(r.r, b); err != nil {
			return Message{}, eofToUnexpected(err)
		}
		return Message{Kind: tag, Tuple: Tuple{
			Base: tag == TagBase,
			TS:   tuple.Time(binary.LittleEndian.Uint64(b[0:])),
			Key:  tuple.Key(binary.LittleEndian.Uint64(b[8:])),
			Val:  math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		}}, nil
	case TagBaseID:
		b := r.buf[:32]
		if _, err := io.ReadFull(r.r, b); err != nil {
			return Message{}, eofToUnexpected(err)
		}
		return Message{Kind: tag, Tuple: Tuple{
			Base: true,
			TS:   tuple.Time(binary.LittleEndian.Uint64(b[0:])),
			Key:  tuple.Key(binary.LittleEndian.Uint64(b[8:])),
			Val:  math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
			ID:   binary.LittleEndian.Uint64(b[24:]),
		}}, nil
	case TagResult:
		b := r.buf[:40]
		if _, err := io.ReadFull(r.r, b); err != nil {
			return Message{}, eofToUnexpected(err)
		}
		return Message{Kind: tag, Result: Result{
			Seq:     binary.LittleEndian.Uint64(b[0:]),
			TS:      tuple.Time(binary.LittleEndian.Uint64(b[8:])),
			Key:     tuple.Key(binary.LittleEndian.Uint64(b[16:])),
			Agg:     math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
			Matches: int64(binary.LittleEndian.Uint64(b[32:])),
		}}, nil
	case TagFlush:
		return Message{Kind: TagFlush}, nil
	case TagNack:
		b := r.buf[:9]
		if _, err := io.ReadFull(r.r, b); err != nil {
			return Message{}, eofToUnexpected(err)
		}
		return Message{Kind: TagNack, Nack: Nack{
			Seq:  binary.LittleEndian.Uint64(b[0:]),
			Code: b[8],
		}}, nil
	case TagError:
		b := r.buf[:2]
		if _, err := io.ReadFull(r.r, b); err != nil {
			return Message{}, eofToUnexpected(err)
		}
		n := int(binary.LittleEndian.Uint16(b))
		if n > MaxErrorLen {
			return Message{}, fmt.Errorf("wire: error frame length %d exceeds limit %d", n, MaxErrorLen)
		}
		msg := make([]byte, n)
		if _, err := io.ReadFull(r.r, msg); err != nil {
			return Message{}, eofToUnexpected(err)
		}
		return Message{Kind: TagError, Err: string(msg)}, nil
	default:
		return Message{}, fmt.Errorf("wire: unknown frame tag 0x%02x", tag)
	}
}

func eofToUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
