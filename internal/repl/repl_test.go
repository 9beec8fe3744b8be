package repl

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"oij/internal/wire"
)

// sampleMessages returns one well-formed message of every kind.
func sampleMessages() []Message {
	var frame [wire.WALFrameBytes]byte
	wire.EncodeWALFrame(frame[:], wire.Tuple{Base: true, TS: 42, Key: 7, Val: 3.5})
	return []Message{
		{Kind: TagHello, Hello: Hello{Version: ProtocolVersion, Epoch: 3, WALID: 0xdeadbeef, Applied: 129}},
		{Kind: TagWelcome, Welcome: Welcome{Epoch: 4, WALID: 0xdeadbeef, Commit: 512}},
		{Kind: TagReset, Oldest: 1000},
		{Kind: TagFence, Epoch: 9},
		{Kind: TagData, Seq: 777, Frame: frame},
		{Kind: TagHeartbeat, Epoch: 4, Commit: 640},
		{Kind: TagAck, Applied: 600},
	}
}

func TestReplMessageRoundTrip(t *testing.T) {
	for _, want := range sampleMessages() {
		b, err := AppendMessage(nil, want)
		if err != nil {
			t.Fatalf("encode tag 0x%02x: %v", want.Kind, err)
		}
		if n := sizeOf(want.Kind); len(b) != n {
			t.Fatalf("tag 0x%02x: encoded %d bytes, want %d", want.Kind, len(b), n)
		}
		got, n, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("decode tag 0x%02x: %v", want.Kind, err)
		}
		if n != len(b) {
			t.Fatalf("tag 0x%02x: decoded %d bytes, want %d", want.Kind, n, len(b))
		}
		if got != want {
			t.Fatalf("tag 0x%02x round trip:\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
}

func TestReplReaderWriterStream(t *testing.T) {
	msgs := sampleMessages()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, m := range msgs {
		if err := w.Write(m); err != nil {
			t.Fatalf("write tag 0x%02x: %v", m.Kind, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	r := NewReader(&buf)
	for i, want := range msgs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("read %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after last message: err = %v, want io.EOF", err)
	}
}

// Every single-bit flip anywhere in an encoded message must be rejected:
// either as a checksum mismatch, an unknown tag, or a version mismatch —
// never decoded as a (different) valid message.
func TestReplMessageBitFlipsRejected(t *testing.T) {
	for _, m := range sampleMessages() {
		b, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			for bit := 0; bit < 8; bit++ {
				mut := bytes.Clone(b)
				mut[i] ^= 1 << bit
				got, _, err := DecodeMessage(mut)
				// A tag flip may turn the message into a shorter
				// message's prefix; the checksum still catches it, or
				// the length check reports a truncation. Both reject.
				if err == nil {
					t.Fatalf("tag 0x%02x: flip byte %d bit %d decoded as %+v", m.Kind, i, bit, got)
				}
			}
		}
	}
}

func TestReplDecodeTruncated(t *testing.T) {
	for _, m := range sampleMessages() {
		b, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n < len(b); n++ {
			if _, _, err := DecodeMessage(b[:n]); err != io.ErrUnexpectedEOF {
				t.Fatalf("tag 0x%02x truncated to %d: err = %v, want io.ErrUnexpectedEOF", m.Kind, n, err)
			}
		}
	}
	if _, _, err := DecodeMessage(nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("empty: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReplReaderTruncatedStream(t *testing.T) {
	b, err := AppendMessage(nil, Message{Kind: TagAck, Applied: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(b[:len(b)-1]))
	if _, err := r.Read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn stream: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReplUnknownTag(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0x7f, 0, 0, 0}))
	if _, err := r.Read(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("unknown tag: err = %v, want ErrBadMessage", err)
	}
	if _, _, err := DecodeMessage([]byte{0xff}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("unknown tag (decode): err = %v, want ErrBadMessage", err)
	}
}

func TestReplHelloVersionMismatch(t *testing.T) {
	b, err := AppendMessage(nil, Message{Kind: TagHello, Hello: Hello{Version: ProtocolVersion + 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeMessage(b); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("future version: err = %v, want ErrBadMessage", err)
	}
}

func TestReplEncodeUnknownKind(t *testing.T) {
	if _, err := AppendMessage(nil, Message{Kind: 0x42}); err == nil {
		t.Fatal("encoding unknown kind succeeded")
	}
}

// The data payload is a verbatim WAL frame: whatever bytes the primary's
// log holds — including a frame that fails the WAL-level checksum — must
// survive the trip so the standby's log is byte-identical.
func TestReplDataCarriesFrameVerbatim(t *testing.T) {
	var frame [wire.WALFrameBytes]byte
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	b, err := AppendMessage(nil, Message{Kind: TagData, Seq: 1, Frame: frame})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Frame != frame {
		t.Fatalf("frame mutated in transit:\n got %x\nwant %x", got.Frame, frame)
	}
}

func TestRoleStrings(t *testing.T) {
	for _, r := range []Role{RoleNone, RolePrimary, RoleStandby, RoleFenced} {
		got, err := ParseRole(r.String())
		if err != nil || got != r {
			t.Fatalf("ParseRole(%q) = %v, %v; want %v", r.String(), got, err, r)
		}
	}
	if Role(99).String() != "unknown" {
		t.Fatalf("out-of-range role: %q", Role(99).String())
	}
	if _, err := ParseRole("bogus"); err == nil {
		t.Fatal("ParseRole(bogus) succeeded")
	}
	if !RolePrimary.Serving() || !RoleNone.Serving() {
		t.Fatal("primary/none must serve")
	}
	if RoleStandby.Serving() || RoleFenced.Serving() {
		t.Fatal("standby/fenced must not serve")
	}
}

// The asymmetry that makes fencing safe: the primary's self-fence
// deadline is strictly inside the standby's promotion deadline for any
// lease, so the zombie stops acking before the standby starts serving.
func TestLeaseTimingAsymmetry(t *testing.T) {
	for _, d := range []time.Duration{4 * time.Millisecond, time.Second, 5 * time.Second, time.Minute} {
		if f := FenceAfter(d); f >= d {
			t.Fatalf("lease %v: FenceAfter %v not strictly inside the lease", d, f)
		}
		hb := HeartbeatEvery(d)
		if hb <= 0 {
			t.Fatalf("lease %v: heartbeat cadence %v", d, hb)
		}
		// At least two heartbeats fit inside the fence window, so one
		// lost heartbeat alone cannot fence a healthy primary.
		if 2*hb > FenceAfter(d) && d >= 4*time.Millisecond*4 {
			t.Fatalf("lease %v: only %v per heartbeat inside fence window %v", d, hb, FenceAfter(d))
		}
	}
	if HeartbeatEvery(time.Microsecond) < time.Millisecond {
		t.Fatal("degenerate lease must floor the heartbeat cadence")
	}
}
