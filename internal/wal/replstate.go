package wal

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"io/fs"

	"oij/internal/wire"
)

// The standby position file, `<path>.replstate`: the upstream log
// identity and the primary slot this standby's local slot 0 maps to, so a
// restarted standby can prove to its primary that its local slots still
// line up. It is CRC-protected and replaced atomically (write temp, sync,
// rename).
//
//	magic "OIJRST1\n" (8) · upstream id (8) · base slot (8) · crc32c (4)
const replStateMagic = "OIJRST1\n"

const replStateBytes = len(replStateMagic) + 8 + 8 + 4

func (w *Writer) replStatePath() string { return w.path + ".replstate" }

// SaveReplState durably records a standby's position: the identity of the
// primary log it follows and the primary slot of its local slot 0.
func (w *Writer) SaveReplState(upstreamID, base uint64) error {
	b := make([]byte, replStateBytes)
	copy(b, replStateMagic)
	binary.LittleEndian.PutUint64(b[8:], upstreamID)
	binary.LittleEndian.PutUint64(b[16:], base)
	binary.LittleEndian.PutUint32(b[24:], wire.WALChecksum(b[:24]))
	tmp := w.replStatePath() + ".tmp"
	w.fs.Remove(tmp)
	f, _, err := w.fs.OpenAppend(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return w.fs.Rename(tmp, w.replStatePath())
}

// LoadReplState restores the position SaveReplState recorded. A missing
// file is a fresh standby (zeros); a corrupt one is an error (the
// operator must wipe the standby rather than let it rejoin at a made-up
// offset). When the log was empty at Open the position is stale by
// definition (the log it described is gone), so it reads as zeros and the
// standby rejoins cold.
func (w *Writer) LoadReplState() (upstreamID, base uint64, err error) {
	b, err := readSegment(w.fs, w.replStatePath())
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	if len(b) != replStateBytes || string(b[:len(replStateMagic)]) != replStateMagic {
		return 0, 0, errors.New("replstate file corrupt; remove it (and the standby WAL) to rejoin cold")
	}
	if binary.LittleEndian.Uint32(b[24:]) != wire.WALChecksum(b[:24]) {
		return 0, 0, errors.New("replstate checksum mismatch; remove it (and the standby WAL) to rejoin cold")
	}
	if w.slotsBase == 0 {
		return 0, 0, nil // empty local log: the persisted offsets describe nothing
	}
	return binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint64(b[16:]), nil
}

// NewID draws a non-zero 64-bit log identity (0 means "fresh" on the
// replication wire, so it is never a valid identity).
func NewID() (uint64, error) {
	for {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return 0, err
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id, nil
		}
	}
}
