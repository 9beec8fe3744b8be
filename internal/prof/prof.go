// Package prof is the continuous-profiling subsystem: a background
// capturer that takes short periodic CPU profile slices (duty-cycled so
// the profiler's own cost stays bounded), heap/alloc snapshots, and
// mutex/block samples, and writes them into a bounded on-disk profile ring
// — temp+rename writes, an indexed manifest, size- and count-capped
// retention, the same durability discipline as the WAL. Incident paths
// (SLO breach, stall watchdog, memory pressure, evictions) trigger an
// immediate out-of-cycle capture, so the profile of the bad minute is on
// disk next to the flight dump instead of whatever the next periodic slice
// happens to see.
package prof

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oij/internal/faultfs"
	"oij/internal/obs"
	"oij/internal/trace"
)

// Config configures a Capturer.
type Config struct {
	// Dir is the profile ring directory (required).
	Dir string
	// Period is the duty cycle between periodic capture rounds (default
	// 60s). Each round takes one CPU slice plus heap, mutex, and block
	// snapshots.
	Period time.Duration
	// CPUSlice is the length of each CPU profile slice (default 2s; must
	// be shorter than Period — the slice/period ratio is the profiler's
	// duty cycle and therefore its steady-state overhead bound).
	CPUSlice time.Duration
	// Retain caps the number of profiles kept on disk (default 32); a
	// 64 MiB byte cap applies too. Oldest-first eviction, like WAL segment
	// rotation.
	Retain int
	// FS overrides the filesystem the ring writes through — the fault
	// injection seam of the manifest-recovery tests. Nil means the real
	// filesystem.
	FS faultfs.FS
	// Flight, when set, receives a prof_capture event per stored profile,
	// and every manifest entry records the flight sequence at capture time
	// so incident dumps and the profiles they triggered cross-reference.
	Flight *trace.Flight

	// In-package tests shrink these (zero means the default below) and
	// leave the runtime's sampling rates alone.
	maxBytes         int64
	incidentMinGap   time.Duration
	keepRuntimeRates bool
}

// Settings production never changes: the ring's byte cap, the gap between
// incident captures (a flapping SLO must not turn the profiler into the
// incident), and the runtime's mutex/block sampling rates while the
// capturer runs.
const (
	defaultMaxBytes       = 64 << 20
	defaultIncidentMinGap = 10 * time.Second
	mutexFraction         = 64
	blockRateNS           = int(time.Millisecond)
)

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = time.Minute
	}
	if c.CPUSlice <= 0 {
		c.CPUSlice = 2 * time.Second
	}
	if c.Retain <= 0 {
		c.Retain = 32
	}
	if c.maxBytes <= 0 {
		c.maxBytes = defaultMaxBytes
	}
	if c.incidentMinGap <= 0 {
		c.incidentMinGap = defaultIncidentMinGap
	}
	if c.FS == nil {
		c.FS = faultfs.OS{}
	}
	return c
}

// manifestName is the ring index file inside Config.Dir.
const manifestName = "MANIFEST.json"

// Entry is one stored profile in the ring manifest.
type Entry struct {
	Seq       uint64 `json:"seq"`
	Kind      string `json:"kind"`   // cpu | heap | mutex | block
	Reason    string `json:"reason"` // periodic | manual | incident reason
	File      string `json:"file"`   // basename within the ring directory
	Bytes     int64  `json:"bytes"`
	CreatedNS int64  `json:"created_ns"`
	SliceNS   int64  `json:"slice_ns,omitempty"`   // CPU profiles: slice length
	FlightSeq uint64 `json:"flight_seq,omitempty"` // flight recorder seq at store time
}

// manifestDoc is the on-disk MANIFEST.json document.
type manifestDoc struct {
	NextSeq uint64  `json:"next_seq"`
	Entries []Entry `json:"entries"`
}

// Stats is the capturer's live state, exported on /statusz and /metrics.
type Stats struct {
	Captures        uint64  `json:"captures"`
	Errors          uint64  `json:"errors"`
	Incidents       uint64  `json:"incident_captures"`
	Evictions       uint64  `json:"evictions"`
	Recovered       int     `json:"recovered_entries,omitempty"`
	Entries         int     `json:"entries"`
	Bytes           int64   `json:"bytes"`
	LastCaptureUnix int64   `json:"last_capture_unix,omitempty"`
	LastReason      string  `json:"last_reason,omitempty"`
	PeriodSeconds   float64 `json:"period_seconds"`
	CPUSliceSeconds float64 `json:"cpu_slice_seconds"`
}

// Capturer is the continuous profiler. All methods are safe for concurrent
// use; a nil *Capturer is a valid no-op so call sites need no guards.
type Capturer struct {
	cfg Config

	// capMu serializes actual profile collection: the runtime allows one
	// active CPU profile per process, so a periodic slice and an incident
	// capture (or a second server in the same test process) queue instead
	// of erroring.
	capMu sync.Mutex

	// mu guards the ring state and manifest writes.
	mu      sync.Mutex
	entries []Entry
	nextSeq uint64
	bytes   int64
	closed  bool

	captures       atomic.Uint64
	errs           atomic.Uint64
	incidents      atomic.Uint64
	evictions      atomic.Uint64
	recovered      int
	lastCaptureNS  atomic.Int64
	lastIncidentNS atomic.Int64
	lastReason     atomic.Value // string

	prevMutexFrac int
	done          chan struct{}
	wg            sync.WaitGroup
	closeOnce     sync.Once
}

// New validates the configuration, recovers the ring manifest (rebuilding
// it by directory scan if a previous process tore the write), and starts
// the periodic capture loop.
func New(cfg Config) (*Capturer, error) {
	if cfg.Dir == "" {
		return nil, errors.New("prof: Dir is required")
	}
	cfg = cfg.withDefaults()
	if cfg.CPUSlice >= cfg.Period {
		return nil, fmt.Errorf("prof: CPUSlice %v must be shorter than Period %v", cfg.CPUSlice, cfg.Period)
	}
	if _, isMem := cfg.FS.(*faultfs.Mem); !isMem {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	c := &Capturer{cfg: cfg, done: make(chan struct{})}
	c.lastReason.Store("")
	if err := c.loadManifest(); err != nil {
		return nil, err
	}
	if !cfg.keepRuntimeRates {
		c.prevMutexFrac = runtime.SetMutexProfileFraction(mutexFraction)
		runtime.SetBlockProfileRate(blockRateNS)
	}
	c.wg.Add(1)
	go c.loop()
	return c, nil
}

// Close stops the capture loop and waits for in-flight captures. The ring
// and manifest stay on disk — profiles are forensic artifacts.
func (c *Capturer) Close() {
	if c == nil {
		return
	}
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		close(c.done)
		c.wg.Wait()
		if !c.cfg.keepRuntimeRates {
			runtime.SetMutexProfileFraction(c.prevMutexFrac)
			runtime.SetBlockProfileRate(0)
		}
	})
}

// Stats snapshots the capturer.
func (c *Capturer) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	entries, bytes := len(c.entries), c.bytes
	c.mu.Unlock()
	return Stats{
		Captures:        c.captures.Load(),
		Errors:          c.errs.Load(),
		Incidents:       c.incidents.Load(),
		Evictions:       c.evictions.Load(),
		Recovered:       c.recovered,
		Entries:         entries,
		Bytes:           bytes,
		LastCaptureUnix: c.lastCaptureNS.Load() / int64(time.Second),
		LastReason:      c.lastReason.Load().(string),
		PeriodSeconds:   c.cfg.Period.Seconds(),
		CPUSliceSeconds: c.cfg.CPUSlice.Seconds(),
	}
}

// Entries returns a copy of the live manifest, oldest first (nil only for
// a nil Capturer).
func (c *Capturer) Entries() []Entry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Entry{}, c.entries...)
}

// loop is the periodic duty cycle.
func (c *Capturer) loop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.Period)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
			c.captureRound("periodic", true)
		}
	}
}

// captureRound takes one CPU slice plus snapshot profiles. full rounds add
// mutex/block; incident rounds keep to cpu+heap so they finish fast.
func (c *Capturer) captureRound(reason string, full bool) {
	c.captureCPU(reason)
	c.captureSnapshot("heap", "allocs", reason)
	if full {
		c.captureSnapshot("mutex", "mutex", reason)
		c.captureSnapshot("block", "block", reason)
	}
}

// CaptureNow fires an immediate out-of-cycle capture — the incident hook.
// It never blocks the caller (collection runs in a goroutine) and is
// rate-limited to one per 10 s so a flapping incident source cannot keep
// the CPU profiler pinned on.
func (c *Capturer) CaptureNow(reason string) {
	if c == nil {
		return
	}
	now := time.Now().UnixNano()
	last := c.lastIncidentNS.Load()
	if now-last < int64(c.cfg.incidentMinGap) || !c.lastIncidentNS.CompareAndSwap(last, now) {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.wg.Add(1)
	c.mu.Unlock()
	c.incidents.Add(1)
	go func() {
		defer c.wg.Done()
		c.captureRound(reason, false)
	}()
}

// captureCPU collects one CPU slice. A busy profiler (another subsystem
// holds runtime/pprof's single CPU profile) counts an error rather than
// failing anything: the next cycle retries.
func (c *Capturer) captureCPU(reason string) {
	c.capMu.Lock()
	defer c.capMu.Unlock()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		c.errs.Add(1)
		return
	}
	select {
	case <-time.After(c.cfg.CPUSlice):
	case <-c.done: // closing: cut the slice short, keep what it saw
	}
	pprof.StopCPUProfile()
	c.store("cpu", reason, buf.Bytes(), int64(c.cfg.CPUSlice))
}

// captureSnapshot stores one runtime snapshot profile (heap/mutex/block).
func (c *Capturer) captureSnapshot(kind, lookup, reason string) {
	p := pprof.Lookup(lookup)
	if p == nil {
		c.errs.Add(1)
		return
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 0); err != nil {
		c.errs.Add(1)
		return
	}
	c.store(kind, reason, buf.Bytes(), 0)
}

// sanitizeReason maps an incident reason into the filename alphabet.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "unknown"
	}
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason) && i < 40; i++ {
		ch := reason[i]
		switch {
		case ch >= 'a' && ch <= 'z', ch >= '0' && ch <= '9', ch == '-':
			out = append(out, ch)
		case ch >= 'A' && ch <= 'Z':
			out = append(out, ch+('a'-'A'))
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}

// entryFile names one ring file: <seq>-<kind>-<reason>.pprof.
func entryFile(seq uint64, kind, reason string) string {
	return fmt.Sprintf("%06d-%s-%s.pprof", seq, kind, sanitizeReason(reason))
}

// parseEntryFile inverts entryFile for manifest recovery scans.
func parseEntryFile(name string) (Entry, bool) {
	if !strings.HasSuffix(name, ".pprof") {
		return Entry{}, false
	}
	parts := strings.SplitN(strings.TrimSuffix(name, ".pprof"), "-", 3)
	if len(parts) != 3 {
		return Entry{}, false
	}
	seq, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	switch parts[1] {
	case "cpu", "heap", "mutex", "block":
	default:
		return Entry{}, false
	}
	return Entry{Seq: seq, Kind: parts[1], Reason: parts[2], File: name}, true
}

// store writes one profile into the ring: temp+rename for the profile, a
// temp+rename manifest rewrite that drops the oldest entries past the
// retention caps, and only then the removal of their files — so a crash at
// any point leaves a manifest that lists only files that exist (the
// unlisted leftovers are swept at the next start), verified against
// faultfs in the tests.
func (c *Capturer) store(kind, reason string, data []byte, sliceNS int64) {
	if len(data) == 0 {
		return
	}
	var flightSeq uint64
	if c.cfg.Flight != nil {
		flightSeq = c.cfg.Flight.Seq()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := c.nextSeq
	c.nextSeq++
	name := entryFile(seq, kind, reason)
	if err := faultfs.WriteFileAtomic(c.cfg.FS, filepath.Join(c.cfg.Dir, name), data); err != nil {
		c.errs.Add(1)
		return
	}
	now := time.Now()
	c.entries = append(c.entries, Entry{
		Seq:       seq,
		Kind:      kind,
		Reason:    sanitizeReason(reason),
		File:      name,
		Bytes:     int64(len(data)),
		CreatedNS: now.UnixNano(),
		SliceNS:   sliceNS,
		FlightSeq: flightSeq,
	})
	c.bytes += int64(len(data))
	victims := c.evictLocked()
	if err := c.saveManifestLocked(); err != nil {
		// The manifest on disk may still list the victims: keep their
		// files and leave them to the next start's sweep.
		c.errs.Add(1)
		victims = nil
	}
	for _, v := range victims {
		if err := c.cfg.FS.Remove(filepath.Join(c.cfg.Dir, v.File)); err != nil {
			c.errs.Add(1)
		}
	}
	c.captures.Add(1)
	c.lastCaptureNS.Store(now.UnixNano())
	c.lastReason.Store(sanitizeReason(reason))
	c.cfg.Flight.Record(trace.CompProf, trace.EvProfCapture, seq, uint64(len(data)))
}

// evictLocked drops oldest entries while either retention cap is exceeded
// and returns them; their files are still on disk.
func (c *Capturer) evictLocked() []Entry {
	n := 0
	for (len(c.entries)-n > c.cfg.Retain || c.bytes > c.cfg.maxBytes) && len(c.entries)-n > 1 {
		c.bytes -= c.entries[n].Bytes
		n++
	}
	victims := c.entries[:n:n]
	c.entries = c.entries[n:]
	c.evictions.Add(uint64(n))
	return victims
}

func (c *Capturer) saveManifestLocked() error {
	doc := manifestDoc{NextSeq: c.nextSeq, Entries: c.entries}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return faultfs.WriteFileAtomic(c.cfg.FS, filepath.Join(c.cfg.Dir, manifestName), data)
}

// loadManifest restores ring state at startup. A missing manifest is a
// fresh ring; an unparsable one (torn write, bit rot) falls back to a
// directory scan — the profile filenames are self-describing, so the index
// is rebuilt from what actually survived, exactly like WAL salvage. Profile
// files a parsable manifest does not list are what a crash mid-store left
// (an evicted victim, or a profile whose manifest rewrite never landed);
// nothing would ever evict them, so they are removed.
func (c *Capturer) loadManifest() error {
	files, err := c.ringFiles()
	if err != nil {
		return err
	}
	var doc manifestDoc
	r, err := c.cfg.FS.Open(filepath.Join(c.cfg.Dir, manifestName))
	switch {
	case errors.Is(err, fs.ErrNotExist): // a fresh ring
	case err != nil:
		return fmt.Errorf("prof: manifest: %w", err)
	default:
		data, rerr := io.ReadAll(r)
		r.Close()
		if rerr != nil || json.Unmarshal(data, &doc) != nil || doc.NextSeq < uint64(len(doc.Entries)) {
			return c.recoverByScan(files)
		}
	}
	c.entries = doc.Entries
	c.nextSeq = doc.NextSeq
	for _, e := range c.entries {
		c.bytes += e.Bytes
	}
	for _, f := range files {
		if !slices.ContainsFunc(c.entries, func(e Entry) bool { return e.File == f.File }) {
			c.cfg.FS.Remove(filepath.Join(c.cfg.Dir, f.File))
		}
	}
	return nil
}

// ringFiles lists the profile files in the ring directory.
func (c *Capturer) ringFiles() ([]Entry, error) {
	var names []string
	if lister, ok := c.cfg.FS.(interface{ Names() []string }); ok {
		prefix := c.cfg.Dir + string(filepath.Separator)
		for _, n := range lister.Names() {
			if strings.HasPrefix(n, prefix) {
				names = append(names, strings.TrimPrefix(n, prefix))
			}
		}
	} else {
		des, err := os.ReadDir(c.cfg.Dir)
		if err != nil {
			return nil, fmt.Errorf("prof: ring dir: %w", err)
		}
		for _, de := range des {
			if !de.IsDir() {
				names = append(names, de.Name())
			}
		}
	}
	var files []Entry
	for _, n := range names {
		if e, ok := parseEntryFile(n); ok {
			files = append(files, e)
		}
	}
	return files, nil
}

// recoverByScan rebuilds the manifest from the ring's profile files.
func (c *Capturer) recoverByScan(files []Entry) error {
	for _, e := range files {
		// Size via the append seam (it reports current length) so the Mem
		// fault filesystem needs no extra stat surface.
		f, size, err := c.cfg.FS.OpenAppend(filepath.Join(c.cfg.Dir, e.File))
		if err != nil {
			continue
		}
		f.Close()
		e.Bytes = size
		c.entries = append(c.entries, e)
		c.bytes += size
		if e.Seq >= c.nextSeq {
			c.nextSeq = e.Seq + 1
		}
	}
	sort.Slice(c.entries, func(i, j int) bool { return c.entries[i].Seq < c.entries[j].Seq })
	c.recovered = len(c.entries)
	return c.saveManifestLocked()
}

// profilezDoc is the /profilez JSON document.
type profilezDoc struct {
	Dir     string  `json:"dir"`
	Retain  int     `json:"retain"`
	MaxByte int64   `json:"max_bytes"`
	Stats   Stats   `json:"stats"`
	Entries []Entry `json:"entries"`
}

// ServeHTTP is the /profilez endpoint: the JSON manifest by default,
// ?id=SEQ fetches one stored profile, and POST ?capture=reason forces a
// synchronous capture round (handy in tests and incident response). Any
// other query key is a 400: merging a window of profiles is `go tool
// pprof`'s job, on files fetched with ?id=.
func (c *Capturer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	for key := range q {
		if key != "id" && key != "capture" {
			obs.JSONError(w, fmt.Sprintf("query key %q is not served: fetch profiles with ?id=SEQ "+
				"and merge a window with `go tool pprof -proto`", key), http.StatusBadRequest)
			return
		}
	}
	switch {
	case q.Has("id"):
		seq, err := strconv.ParseUint(q.Get("id"), 10, 64)
		if err != nil {
			obs.JSONError(w, fmt.Sprintf("bad id %q", q.Get("id")), http.StatusBadRequest)
			return
		}
		for _, e := range c.Entries() {
			if e.Seq == seq {
				f, err := c.cfg.FS.Open(filepath.Join(c.cfg.Dir, e.File))
				if err != nil {
					obs.JSONError(w, err.Error(), http.StatusInternalServerError)
					return
				}
				defer f.Close()
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Header().Set("Content-Disposition", `attachment; filename="`+e.File+`"`)
				io.Copy(w, f)
				return
			}
		}
		obs.JSONError(w, fmt.Sprintf("no profile with seq %d", seq), http.StatusNotFound)
	case q.Has("capture"):
		if r.Method != http.MethodPost {
			obs.JSONError(w, "capture requires POST", http.StatusMethodNotAllowed)
			return
		}
		reason := q.Get("capture")
		if reason == "" {
			reason = "manual"
		}
		c.captureRound(reason, false)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.Stats())
	default:
		w.Header().Set("Content-Type", "application/json")
		doc := profilezDoc{
			Dir:     c.cfg.Dir,
			Retain:  c.cfg.Retain,
			MaxByte: c.cfg.maxBytes,
			Stats:   c.Stats(),
			Entries: c.Entries(),
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	}
}
