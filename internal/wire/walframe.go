// WAL frame format: the on-disk encoding of the write-ahead log (written
// and read by internal/wal). Every segment starts with a magic header and
// every frame carries a CRC32C of its contents:
//
//	segment: magic "OIJWALv2" (8)  then frames
//	frame  : tag(1) ts(8) key(8) val(8) crc32c(4)               = 29 B
//
// The checksum covers the first 25 bytes (tag through val). Fixed-size
// frames mean recovery can skip a corrupted frame and resynchronize at the
// next 29-byte boundary — there is no resync marker, so the format assumes
// length-preserving corruption (bit rot, torn sectors), which is what
// checksums are for; lost bytes end the segment at the last valid frame.
package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"

	"oij/internal/tuple"
)

// WALMagicV2 opens every WAL segment. A segment that does not start with
// it holds nothing recoverable (internal/wal resets it).
const WALMagicV2 = "OIJWALv2"

// WALHeaderBytes is the segment header size.
const WALHeaderBytes = len(WALMagicV2)

// WALFrameBytes is the size of one WAL frame on disk.
const WALFrameBytes = 29

// walFramePayload is the checksummed prefix of a frame.
const walFramePayload = 25

// ErrBadFrame marks a WAL frame whose checksum or tag is invalid.
var ErrBadFrame = errors.New("wire: wal frame corrupt")

// TagWALEpoch marks an epoch frame: a WAL frame (same 29-byte layout
// and checksum) that carries the replication fencing epoch instead of a
// tuple. One is stamped at the start of every segment written by a
// replicated node and again whenever the epoch changes, so recovery of
// any surviving segment suffix finds the highest epoch this log acked
// under. The tag is outside the data range, so readers that predate
// replication skip epoch frames as unparseable rather than replaying
// garbage tuples. The epoch occupies the ts field; key and val are zero.
const TagWALEpoch byte = 0x0e

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WALChecksum is the CRC32C WAL frames carry, shared with the other small
// records kept beside the log (the replication position file).
func WALChecksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// EncodeWALFrame writes t as one WAL frame into b, which must hold at
// least WALFrameBytes.
func EncodeWALFrame(b []byte, t Tuple) {
	if t.Base {
		b[0] = TagBase
	} else {
		b[0] = TagProbe
	}
	binary.LittleEndian.PutUint64(b[1:], uint64(t.TS))
	binary.LittleEndian.PutUint64(b[9:], uint64(t.Key))
	binary.LittleEndian.PutUint64(b[17:], math.Float64bits(t.Val))
	binary.LittleEndian.PutUint32(b[walFramePayload:], crc32.Checksum(b[:walFramePayload], castagnoli))
}

// EncodeWALEpochFrame writes a fencing-epoch frame into b, which must
// hold at least WALFrameBytes.
func EncodeWALEpochFrame(b []byte, epoch uint64) {
	b[0] = TagWALEpoch
	binary.LittleEndian.PutUint64(b[1:], epoch)
	binary.LittleEndian.PutUint64(b[9:], 0)
	binary.LittleEndian.PutUint64(b[17:], 0)
	binary.LittleEndian.PutUint32(b[walFramePayload:], crc32.Checksum(b[:walFramePayload], castagnoli))
}

// DecodeWALEpochFrame parses an epoch frame from b[:WALFrameBytes],
// returning ErrBadFrame when the tag is not TagWALEpoch or the checksum
// does not match.
func DecodeWALEpochFrame(b []byte) (uint64, error) {
	if b[0] != TagWALEpoch {
		return 0, ErrBadFrame
	}
	sum := binary.LittleEndian.Uint32(b[walFramePayload:])
	if sum != crc32.Checksum(b[:walFramePayload], castagnoli) {
		return 0, ErrBadFrame
	}
	return binary.LittleEndian.Uint64(b[1:]), nil
}

// DecodeWALFrame parses one WAL frame from b[:WALFrameBytes]. It
// returns ErrBadFrame when the tag is not a data tag or the checksum does
// not match — the caller decides whether to skip or stop.
func DecodeWALFrame(b []byte) (Tuple, error) {
	if b[0] != TagProbe && b[0] != TagBase {
		return Tuple{}, ErrBadFrame
	}
	sum := binary.LittleEndian.Uint32(b[walFramePayload:])
	if sum != crc32.Checksum(b[:walFramePayload], castagnoli) {
		return Tuple{}, ErrBadFrame
	}
	return Tuple{
		Base: b[0] == TagBase,
		TS:   tuple.Time(binary.LittleEndian.Uint64(b[1:])),
		Key:  tuple.Key(binary.LittleEndian.Uint64(b[9:])),
		Val:  math.Float64frombits(binary.LittleEndian.Uint64(b[17:])),
	}, nil
}
