// Package repl defines the primary→standby WAL replication protocol and
// the lease/fencing arithmetic the failover machinery is built on. The
// transport integration (shipping a live server's WAL, applying frames
// into a standby engine) lives in internal/server; this package is the
// pure, fuzzable core: fixed-layout checksummed messages, the handshake
// state rules, and the lease timing contract.
//
// # Protocol
//
// A standby dials the primary's replication listener and the two sides
// speak fixed-size little-endian messages, each carrying a CRC32C over
// everything before the checksum:
//
//	hello     : tag(1) ver(1) epoch(8) walID(8) applied(8) crc(4) = 30 B  standby → primary
//	welcome   : tag(1) epoch(8) walID(8) commit(8) crc(4)         = 29 B  primary → standby
//	reset     : tag(1) oldest(8) crc(4)                           = 13 B  primary → standby
//	fence     : tag(1) epoch(8) crc(4)                            = 13 B  either direction
//	data      : tag(1) seq(8) walframe(29) crc(4)                 = 42 B  primary → standby
//	heartbeat : tag(1) epoch(8) commit(8) crc(4)                  = 21 B  primary → standby
//	ack       : tag(1) applied(8) crc(4)                          = 13 B  standby → primary
//
// The data payload is a verbatim v2 WAL frame (internal/wire), which
// carries its own CRC32C; the outer checksum additionally covers the tag
// and sequence number, so a corrupted length-preserving stream is detected
// at the message layer before the frame layer ever parses.
//
// # Handshake
//
// hello carries the standby's fencing epoch, the WAL identity it last
// replicated from (0 when fresh), and the primary-log position it has
// durably applied. The primary answers one of:
//
//   - welcome: positions match — streaming resumes from hello.applied.
//     commit is the primary's current end-of-log, so the standby knows
//     when it has caught up.
//   - reset: the standby's position is unusable (different WAL identity,
//     or the frames it needs have rotated past retention). oldest is the
//     first position still available; only an empty standby may accept a
//     reset — one with applied state must be wiped by an operator, since
//     re-applying from oldest would double-count.
//   - fence: the standby's epoch is ahead of the primary's — the primary
//     has been superseded by a promotion it did not observe. The primary
//     must stop acking writes (it is a zombie); the standby must not
//     follow it.
//
// # Epochs and fencing
//
// The fencing epoch is a monotone uint64 stamped into the WAL itself (an
// epoch frame after each segment header, see internal/wire) and carried
// on every hello, welcome, fence, and heartbeat. A standby promotes by
// incrementing the highest epoch it has applied and durably stamping the
// new epoch before serving. Any node that observes a peer with a higher
// epoch is fenced: it stops acknowledging writes immediately. Because the
// epoch rides the replicated WAL, a rejoining zombie cannot disguise its
// staleness — its log is stamped with the old epoch.
//
// # Lease math
//
// The lease D is the failure-detection budget. The primary heartbeats
// every D/4 (HeartbeatEvery), so a healthy standby sees at least three
// renewals per lease even with one loss. The standby promotes when it has
// received nothing — data or heartbeat — for D (the lease expired). The
// primary self-fences when it has heard no ack for 3D/4 (FenceAfter):
// strictly before the standby's promotion deadline, so under a symmetric
// partition the zombie stops acking writes before the standby starts
// serving. The usual lease assumption applies: the two clocks may be
// offset but tick at comparable rates.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"oij/internal/wire"
)

// ProtocolVersion is the replication wire version carried on hello.
const ProtocolVersion = 1

// Message tags. The range is disjoint from the client wire protocol's
// (0x01–0x07) and the WAL frame tags, so a stream cross-wired to the
// wrong port fails the first read instead of misparsing.
const (
	TagHello     byte = 0x11
	TagWelcome   byte = 0x12
	TagReset     byte = 0x13
	TagFence     byte = 0x14
	TagData      byte = 0x15
	TagHeartbeat byte = 0x16
	TagAck       byte = 0x17
)

// Message sizes on the wire.
const (
	HelloBytes     = 1 + 1 + 8 + 8 + 8 + 4
	WelcomeBytes   = 1 + 8 + 8 + 8 + 4
	ResetBytes     = 1 + 8 + 4
	FenceBytes     = 1 + 8 + 4
	DataBytes      = 1 + 8 + wire.WALFrameBytes + 4
	HeartbeatBytes = 1 + 8 + 8 + 4
	AckBytes       = 1 + 8 + 4
)

// MaxMessageBytes is the largest message on the wire (a data frame).
const MaxMessageBytes = DataBytes

// ErrBadMessage marks a replication message whose tag, version, or
// checksum is invalid. The stream cannot resynchronize past it; callers
// drop the connection and re-handshake.
var ErrBadMessage = errors.New("repl: message corrupt")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Hello is the standby's handshake: its fencing epoch, the WAL identity
// it last replicated from (0 when fresh), and the primary-log position it
// has durably applied.
type Hello struct {
	Version byte
	Epoch   uint64
	WALID   uint64
	Applied uint64
}

// Welcome is the primary's handshake acceptance: its epoch, its WAL
// identity (the standby records it for reconnects), and the current
// end-of-log position (the catch-up target).
type Welcome struct {
	Epoch  uint64
	WALID  uint64
	Commit uint64
}

// Message is one decoded replication message; the fields used depend on
// Kind.
type Message struct {
	Kind    byte
	Hello   Hello   // TagHello
	Welcome Welcome // TagWelcome
	Oldest  uint64  // TagReset: first position still available
	Epoch   uint64  // TagFence, TagHeartbeat
	Commit  uint64  // TagHeartbeat: primary end-of-log
	Seq     uint64  // TagData: primary-log position of Frame
	Applied uint64  // TagAck: standby's durable position
	// Frame is the verbatim v2 WAL frame a data message carries.
	Frame [wire.WALFrameBytes]byte
}

// stamp writes the CRC32C of b[:len(b)-4] into the last four bytes.
func stamp(b []byte) {
	n := len(b) - 4
	binary.LittleEndian.PutUint32(b[n:], crc32.Checksum(b[:n], castagnoli))
}

// check verifies the trailing CRC32C.
func check(b []byte) bool {
	n := len(b) - 4
	return binary.LittleEndian.Uint32(b[n:]) == crc32.Checksum(b[:n], castagnoli)
}

// AppendMessage encodes m onto dst and returns the extended slice. It is
// the allocation-free core both the Writer and tests use.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	var buf [MaxMessageBytes]byte
	b := buf[:0]
	switch m.Kind {
	case TagHello:
		b = buf[:HelloBytes]
		b[0], b[1] = TagHello, m.Hello.Version
		binary.LittleEndian.PutUint64(b[2:], m.Hello.Epoch)
		binary.LittleEndian.PutUint64(b[10:], m.Hello.WALID)
		binary.LittleEndian.PutUint64(b[18:], m.Hello.Applied)
	case TagWelcome:
		b = buf[:WelcomeBytes]
		b[0] = TagWelcome
		binary.LittleEndian.PutUint64(b[1:], m.Welcome.Epoch)
		binary.LittleEndian.PutUint64(b[9:], m.Welcome.WALID)
		binary.LittleEndian.PutUint64(b[17:], m.Welcome.Commit)
	case TagReset:
		b = buf[:ResetBytes]
		b[0] = TagReset
		binary.LittleEndian.PutUint64(b[1:], m.Oldest)
	case TagFence:
		b = buf[:FenceBytes]
		b[0] = TagFence
		binary.LittleEndian.PutUint64(b[1:], m.Epoch)
	case TagData:
		b = buf[:DataBytes]
		b[0] = TagData
		binary.LittleEndian.PutUint64(b[1:], m.Seq)
		copy(b[9:], m.Frame[:])
	case TagHeartbeat:
		b = buf[:HeartbeatBytes]
		b[0] = TagHeartbeat
		binary.LittleEndian.PutUint64(b[1:], m.Epoch)
		binary.LittleEndian.PutUint64(b[9:], m.Commit)
	case TagAck:
		b = buf[:AckBytes]
		b[0] = TagAck
		binary.LittleEndian.PutUint64(b[1:], m.Applied)
	default:
		return dst, fmt.Errorf("repl: encode: unknown tag 0x%02x", m.Kind)
	}
	stamp(b)
	return append(dst, b...), nil
}

// sizeOf maps a tag to its fixed message size (0 = unknown tag).
func sizeOf(tag byte) int {
	switch tag {
	case TagHello:
		return HelloBytes
	case TagWelcome:
		return WelcomeBytes
	case TagReset:
		return ResetBytes
	case TagFence:
		return FenceBytes
	case TagData:
		return DataBytes
	case TagHeartbeat:
		return HeartbeatBytes
	case TagAck:
		return AckBytes
	}
	return 0
}

// DecodeMessage parses one message from the front of b, returning the
// message and its encoded size. It returns ErrBadMessage on an unknown
// tag or checksum mismatch and io.ErrUnexpectedEOF when b holds only a
// truncated message (callers read more and retry).
func DecodeMessage(b []byte) (Message, int, error) {
	if len(b) == 0 {
		return Message{}, 0, io.ErrUnexpectedEOF
	}
	n := sizeOf(b[0])
	if n == 0 {
		return Message{}, 0, fmt.Errorf("%w: unknown tag 0x%02x", ErrBadMessage, b[0])
	}
	if len(b) < n {
		return Message{}, 0, io.ErrUnexpectedEOF
	}
	b = b[:n]
	if !check(b) {
		return Message{}, 0, fmt.Errorf("%w: checksum mismatch on tag 0x%02x", ErrBadMessage, b[0])
	}
	m := Message{Kind: b[0]}
	switch b[0] {
	case TagHello:
		m.Hello = Hello{
			Version: b[1],
			Epoch:   binary.LittleEndian.Uint64(b[2:]),
			WALID:   binary.LittleEndian.Uint64(b[10:]),
			Applied: binary.LittleEndian.Uint64(b[18:]),
		}
		if m.Hello.Version != ProtocolVersion {
			return Message{}, 0, fmt.Errorf("%w: protocol version %d (want %d)",
				ErrBadMessage, m.Hello.Version, ProtocolVersion)
		}
	case TagWelcome:
		m.Welcome = Welcome{
			Epoch:  binary.LittleEndian.Uint64(b[1:]),
			WALID:  binary.LittleEndian.Uint64(b[9:]),
			Commit: binary.LittleEndian.Uint64(b[17:]),
		}
	case TagReset:
		m.Oldest = binary.LittleEndian.Uint64(b[1:])
	case TagFence:
		m.Epoch = binary.LittleEndian.Uint64(b[1:])
	case TagData:
		m.Seq = binary.LittleEndian.Uint64(b[1:])
		copy(m.Frame[:], b[9:9+wire.WALFrameBytes])
	case TagHeartbeat:
		m.Epoch = binary.LittleEndian.Uint64(b[1:])
		m.Commit = binary.LittleEndian.Uint64(b[9:])
	case TagAck:
		m.Applied = binary.LittleEndian.Uint64(b[1:])
	}
	return m, n, nil
}

// Writer encodes replication messages onto a buffered stream. Not safe
// for concurrent use.
type Writer struct {
	w   *bufio.Writer
	buf []byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), buf: make([]byte, 0, MaxMessageBytes)}
}

// Write encodes one message (buffered; call Flush to push to the wire).
func (w *Writer) Write(m Message) error {
	b, err := AppendMessage(w.buf[:0], m)
	if err != nil {
		return err
	}
	_, err = w.w.Write(b)
	return err
}

// Flush pushes buffered messages to the underlying stream.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes replication messages from a buffered stream. Not safe
// for concurrent use.
type Reader struct {
	r   *bufio.Reader
	buf [MaxMessageBytes]byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Read decodes the next message. io.EOF marks a clean end of stream
// between messages; a truncated message is io.ErrUnexpectedEOF; a corrupt
// one is ErrBadMessage (the connection is unusable past it).
func (r *Reader) Read() (Message, error) {
	tag, err := r.r.ReadByte()
	if err != nil {
		return Message{}, err
	}
	n := sizeOf(tag)
	if n == 0 {
		return Message{}, fmt.Errorf("%w: unknown tag 0x%02x", ErrBadMessage, tag)
	}
	b := r.buf[:n]
	b[0] = tag
	if _, err := io.ReadFull(r.r, b[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, err
	}
	m, _, err := DecodeMessage(b)
	return m, err
}

// Role is a node's place in the replication pair.
type Role int32

// Roles. RoleFenced is terminal for a process: a fenced node refuses
// writes until an operator restarts it (typically as a standby of the
// promoted peer).
const (
	RoleNone Role = iota // replication not configured: a plain single node
	RolePrimary
	RoleStandby
	RoleFenced
)

var roleNames = [...]string{"none", "primary", "standby", "fenced"}

// String returns the role's export name.
func (r Role) String() string {
	if r < 0 || int(r) >= len(roleNames) {
		return "unknown"
	}
	return roleNames[r]
}

// ParseRole maps an export name back to a Role (for tests and tools).
func ParseRole(s string) (Role, error) {
	for i, n := range roleNames {
		if n == s {
			return Role(i), nil
		}
	}
	return 0, fmt.Errorf("repl: unknown role %q", s)
}

// Serving reports whether a node in this role answers client requests.
func (r Role) Serving() bool { return r == RoleNone || r == RolePrimary }

// HeartbeatEvery returns the primary's heartbeat cadence for a lease:
// D/4, floored at a millisecond so a degenerate lease cannot spin.
func HeartbeatEvery(lease time.Duration) time.Duration {
	d := lease / 4
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// FenceAfter returns how long a primary waits without any standby ack
// before self-fencing: 3D/4, strictly inside the standby's promotion
// deadline D, so the zombie stops acking before the standby starts
// serving.
func FenceAfter(lease time.Duration) time.Duration {
	return lease * 3 / 4
}
