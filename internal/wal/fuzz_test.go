package wal

import (
	"strings"
	"testing"

	"oij/internal/faultfs"
	"oij/internal/tuple"
	"oij/internal/wire"
)

// FuzzWALRecover throws arbitrary bytes at the recovery path as a segment
// image. Invariants: recovery never panics and never reports an error on
// content (only I/O can fail); the replay callback fires exactly
// st.Recovered times; a writer opened over the same segment (sanitize,
// which resets a segment without the header) always succeeds; and after
// one append + clean close, a second recovery sees a fully clean log —
// every previously salvaged frame, the new frame, no torn bytes.
func FuzzWALRecover(f *testing.F) {
	frame := func(t wire.Tuple) []byte {
		var b [wire.WALFrameBytes]byte
		wire.EncodeWALFrame(b[:], t)
		return b[:]
	}
	// A healthy segment.
	v2 := []byte(wire.WALMagicV2)
	for i := 0; i < 3; i++ {
		v2 = append(v2, frame(wire.Tuple{TS: tuple.Time(i), Key: 1, Val: 1})...)
	}
	f.Add(v2)
	// Same segment with a flipped bit mid-frame and a torn tail.
	dam := append([]byte(nil), v2...)
	dam[wire.WALHeaderBytes+wire.WALFrameBytes+7] ^= 0x01
	f.Add(append(dam, 0xab, 0xcd))
	// A pre-checksum (v1-shaped) image of raw network frames, intact and
	// torn: junk without the header.
	var sb strings.Builder
	enc := wire.NewWriter(&sb)
	enc.WriteTuple(wire.Tuple{TS: 9, Key: 2, Val: 0.5})
	enc.WriteTuple(wire.Tuple{TS: 10, Key: 2, Val: 1.5})
	enc.Flush()
	f.Add([]byte(sb.String()))
	f.Add([]byte(sb.String()[:30]))
	// Degenerates: empty, torn header, pure junk.
	f.Add([]byte{})
	f.Add([]byte(wire.WALMagicV2[:5]))
	f.Add([]byte{0xff, 0x00, 0x13, 0x37})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := faultfs.NewMem()
		m.Put("wal", data)

		var replayed int64
		st, err := Replay(m, "wal", func(wire.Tuple) { replayed++ })
		if err != nil {
			t.Fatalf("recovery failed on content: %v", err)
		}
		if replayed != st.Recovered {
			t.Fatalf("callback fired %d times, stats say %d", replayed, st.Recovered)
		}

		// Second life: the writer must be able to continue any log.
		w, err := openWriter(m, 1<<20, 1000, SyncAlways)
		if err != nil {
			t.Fatalf("writer refused salvageable log: %v", err)
		}
		if err := w.Append(wire.Tuple{TS: 1 << 40, Key: 7, Val: 2}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		st2, err := Replay(m, "wal", nil)
		if err != nil {
			t.Fatal(err)
		}
		if st2.Truncated != 0 {
			t.Fatalf("sanitized log still has %d torn bytes", st2.Truncated)
		}
		if st2.Recovered != st.Recovered+1 {
			t.Fatalf("second life recovered %d frames, want %d salvaged + 1 new",
				st2.Recovered, st.Recovered)
		}
		if st2.Skipped != st.Skipped {
			t.Fatalf("skip count changed across sanitize: %d -> %d", st.Skipped, st2.Skipped)
		}
	})
}
