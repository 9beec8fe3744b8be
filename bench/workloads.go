package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"oij/internal/tuple"
	"oij/internal/window"
	"oij/internal/workload"
)

// workloadDef is one named traffic mix. The reasons each exists are in
// README.md; in short: steady stresses per-frame serving cost, trickle
// measures wake-up latency on an idle pipeline, wide has large live state,
// and durable is steady with the write-ahead log on.
type workloadDef struct {
	name   string
	preset func(n int) workload.Config
	rate   float64 // paced arrival rate, tuples per wall-clock second
	wal    bool    // run the daemon with a WAL and restart it over the prefill
}

var workloads = []workloadDef{
	{name: "steady", preset: workload.DefaultSynthetic, rate: 300_000},
	{name: "trickle", preset: workload.D, rate: 15_000},
	{name: "wide", preset: workload.C, rate: 100_000},
	{name: "durable", preset: workload.DefaultSynthetic, rate: 300_000, wal: true},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// blockTuples is how many tuples are generated per workload. Longer runs
// replay the block cyclically with every timestamp shifted by one block span
// per lap (see stream.at). It is a multiple of 3 so that workload D's
// 66⅔ µs tuple spacing gives a whole-µs span.
const blockTuples = 1_200_000

// rec is one generated tuple in wire-ready form.
type rec struct {
	ts   tuple.Time
	key  tuple.Key
	val  float64
	base bool
}

// stream is a workload's deterministic, unbounded tuple sequence: tuple g
// is block[g mod len] with its timestamp moved forward by span per lap.
// Lap c's timestamps equal what the generator would have produced for
// indexes c·len+j (nominal time is linear in the index), so the stream
// keeps the generator's disorder bound and every engine answer stays
// comparable with the refjoin oracles.
type stream struct {
	cfg   workload.Config
	block []rec
	span  tuple.Time
	// probesByKey[k] lists key k's probes in the block by timestamp (built
	// by indexProbes for the answer checker).
	probesByKey map[tuple.Key][]probeRef
}

type probeRef struct {
	ts  tuple.Time
	pos int32
}

// seedFor derives the generator seed from -seed and the stream's preset
// name, so workloads sharing a preset (steady, durable) share a stream.
func seedFor(preset string, seed int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(preset))
	return int64(h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15)
}

func newStream(w workloadDef, seed int64) (*stream, error) {
	cfg := w.preset(blockTuples)
	cfg.Seed = seedFor(cfg.Name, seed)
	ts, err := cfg.Generate()
	if err != nil {
		return nil, err
	}
	s := &stream{cfg: cfg, block: make([]rec, len(ts))}
	for i, t := range ts {
		s.block[i] = rec{ts: t.TS, key: t.Key, val: t.Val, base: t.Side == tuple.Base}
	}
	s.span = tuple.Time(math.Round(float64(blockTuples) * 1e6 / cfg.EventRate))
	return s, nil
}

func (s *stream) at(g int) rec {
	n := len(s.block)
	r := s.block[g%n]
	r.ts += tuple.Time(g/n) * s.span
	return r
}

func (s *stream) window() window.Spec { return s.cfg.Window }

// retentionTuples is how many tuples one retention horizon (window plus
// lateness) of event time holds.
func (s *stream) retentionTuples() int {
	w := s.cfg.Window
	return int(float64(w.Len()+w.Lateness) * s.cfg.EventRate / 1e6)
}

// fingerprint is an FNV-64a hash over the generated block; it pins the
// inputs so a generator change cannot silently move the benchmark.
func (s *stream) fingerprint() string {
	h := fnv.New64a()
	var b [25]byte
	for _, r := range s.block {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.ts))
		binary.LittleEndian.PutUint64(b[8:], r.key)
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.val))
		b[24] = 0
		if r.base {
			b[24] = 1
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (s *stream) indexProbes() {
	if s.probesByKey != nil {
		return
	}
	s.probesByKey = map[tuple.Key][]probeRef{}
	for i, r := range s.block {
		if !r.base {
			s.probesByKey[r.key] = append(s.probesByKey[r.key], probeRef{r.ts, int32(i)})
		}
	}
	for _, refs := range s.probesByKey {
		sort.Slice(refs, func(i, j int) bool { return refs[i].ts < refs[j].ts })
	}
}

// probesInWindow calls fn with the global index of every probe of key k
// with lo <= ts <= hi. Call indexProbes first.
func (s *stream) probesInWindow(k tuple.Key, lo, hi tuple.Time, fn func(g int)) {
	refs := s.probesByKey[k]
	n := len(s.block)
	// Lap c holds timestamps in [c·span − disorder, (c+1)·span).
	for lap := max(lo/s.span-1, 0); lap <= (hi+s.cfg.Disorder)/s.span; lap++ {
		shift := tuple.Time(lap) * s.span
		i := sort.Search(len(refs), func(i int) bool { return refs[i].ts+shift >= lo })
		for ; i < len(refs) && refs[i].ts+shift <= hi; i++ {
			fn(int(lap)*n + int(refs[i].pos))
		}
	}
}
