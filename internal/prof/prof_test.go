package prof

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"oij/internal/faultfs"
	"oij/internal/trace"
)

// newTestCapturer builds a capturer on a Mem filesystem with the periodic
// loop effectively parked (long period) so tests drive captures directly.
func newTestCapturer(t *testing.T, mem *faultfs.Mem, mut func(*Config)) *Capturer {
	t.Helper()
	cfg := Config{
		Dir:              "ring",
		Period:           time.Hour,
		CPUSlice:         20 * time.Millisecond,
		FS:               mem,
		incidentMinGap:   time.Nanosecond,
		keepRuntimeRates: true,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error for missing Dir")
	}
	_, err := New(Config{Dir: "x", Period: time.Second, CPUSlice: 2 * time.Second, FS: faultfs.NewMem()})
	if err == nil || !strings.Contains(err.Error(), "shorter than Period") {
		t.Fatalf("want slice>=period error, got %v", err)
	}
}

func TestStoreAndManifest(t *testing.T) {
	mem := faultfs.NewMem()
	c := newTestCapturer(t, mem, nil)
	c.store("heap", "periodic", []byte("fake-profile"), 0)
	entries := c.Entries()
	if len(entries) != 1 {
		t.Fatalf("want 1 entry, got %d", len(entries))
	}
	e := entries[0]
	if e.Kind != "heap" || e.Bytes != int64(len("fake-profile")) || e.File != "000000-heap-periodic.pprof" {
		t.Fatalf("bad entry: %+v", e)
	}
	st := c.Stats()
	if st.Captures != 1 || st.Entries != 1 || st.LastReason != "periodic" {
		t.Fatalf("bad stats: %+v", st)
	}
	// Manifest must be parseable on its own.
	r, err := mem.Open("ring/MANIFEST.json")
	if err != nil {
		t.Fatalf("open manifest: %v", err)
	}
	defer r.Close()
	var doc manifestDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		t.Fatalf("manifest decode: %v", err)
	}
	if doc.NextSeq != 1 || len(doc.Entries) != 1 {
		t.Fatalf("bad manifest: %+v", doc)
	}
}

// TestRetentionEvictionOrder fills past both caps and checks strictly
// oldest-first eviction with on-disk file removal.
func TestRetentionEvictionOrder(t *testing.T) {
	mem := faultfs.NewMem()
	c := newTestCapturer(t, mem, func(cfg *Config) { cfg.Retain = 3 })
	for i := 0; i < 6; i++ {
		c.store("heap", "periodic", []byte(strings.Repeat("x", 10+i)), 0)
	}
	entries := c.Entries()
	if len(entries) != 3 {
		t.Fatalf("want 3 retained, got %d", len(entries))
	}
	for i, e := range entries {
		if want := uint64(3 + i); e.Seq != want {
			t.Fatalf("entry %d seq = %d, want %d (oldest-first eviction broken)", i, e.Seq, want)
		}
	}
	if c.Stats().Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", c.Stats().Evictions)
	}
	// Evicted files must be gone, retained ones present.
	if _, err := mem.Open("ring/000000-heap-periodic.pprof"); err == nil {
		t.Fatal("evicted file still on disk")
	}
	if _, err := mem.Open("ring/000005-heap-periodic.pprof"); err != nil {
		t.Fatalf("retained file missing: %v", err)
	}
}

func TestRetentionByBytes(t *testing.T) {
	mem := faultfs.NewMem()
	c := newTestCapturer(t, mem, func(cfg *Config) { cfg.Retain = 100; cfg.maxBytes = 64 })
	for i := 0; i < 4; i++ {
		c.store("heap", "periodic", []byte(strings.Repeat("y", 30)), 0)
	}
	st := c.Stats()
	if st.Bytes > 64 {
		t.Fatalf("ring bytes %d exceed cap 64", st.Bytes)
	}
	if st.Entries != 2 {
		t.Fatalf("want 2 entries under 64-byte cap, got %d", st.Entries)
	}
}

// TestManifestRecoveryAfterTornWrite corrupts the manifest mid-document
// and checks a fresh capturer rebuilds the index by directory scan.
func TestManifestRecoveryAfterTornWrite(t *testing.T) {
	mem := faultfs.NewMem()
	c := newTestCapturer(t, mem, nil)
	c.store("cpu", "periodic", []byte("cpu-profile-data"), int64(time.Second))
	c.store("heap", "slo-unhealthy", []byte("heap-profile-data"), 0)
	c.Close()

	// Tear the manifest: keep only the first half of the JSON document.
	mem.Put("ring/MANIFEST.json", []byte(`{"next_seq": 2, "entries": [{"seq"`))

	c2 := newTestCapturer(t, mem, nil)
	entries := c2.Entries()
	if len(entries) != 2 {
		t.Fatalf("recovered %d entries, want 2: %+v", len(entries), entries)
	}
	if entries[0].Seq != 0 || entries[0].Kind != "cpu" || entries[1].Seq != 1 || entries[1].Kind != "heap" {
		t.Fatalf("recovered entries wrong: %+v", entries)
	}
	if entries[1].Reason != "slo-unhealthy" {
		t.Fatalf("reason lost in recovery: %+v", entries[1])
	}
	if entries[0].Bytes != int64(len("cpu-profile-data")) {
		t.Fatalf("recovered size wrong: %+v", entries[0])
	}
	if c2.Stats().Recovered != 2 {
		t.Fatalf("Recovered = %d, want 2", c2.Stats().Recovered)
	}
	// New captures must continue the sequence, not collide.
	c2.store("heap", "periodic", []byte("later"), 0)
	if got := c2.Entries()[2].Seq; got != 2 {
		t.Fatalf("post-recovery seq = %d, want 2", got)
	}
}

// TestTornTempProfileReplaced crashes a capture mid-write, leaving a torn
// temp file for the sequence number the manifest hands out next, and
// checks the next capture replaces the torn bytes instead of appending to
// them.
func TestTornTempProfileReplaced(t *testing.T) {
	mem := faultfs.NewMem()
	c := newTestCapturer(t, mem, nil)
	c.store("heap", "periodic", []byte("first"), 0)
	c.Close()
	mem.Put("ring/000001-heap-periodic.pprof.tmp", []byte("TORN"))

	c2 := newTestCapturer(t, mem, nil)
	c2.store("heap", "periodic", []byte("fresh-profile"), 0)
	entries := c2.Entries()
	if len(entries) != 2 || entries[1].File != "000001-heap-periodic.pprof" {
		t.Fatalf("entries after restart: %+v", entries)
	}
	got := string(mem.Bytes("ring/000001-heap-periodic.pprof"))
	if got != "fresh-profile" || entries[1].Bytes != int64(len(got)) {
		t.Fatalf("stored %q, manifest says %d bytes; want %q", got, entries[1].Bytes, "fresh-profile")
	}
	if names := mem.Names(); strings.Contains(strings.Join(names, " "), ".tmp") {
		t.Fatalf("temp file left behind: %v", names)
	}
}

// TestEvictionCrashPointSweep crashes a Retain=1 ring at every filesystem
// operation of a store that evicts, restarts on what survived, and checks
// that the manifest lists only profiles that exist, that no profile file
// is left outside the manifest, and that /profilez?id= serves each entry.
func TestEvictionCrashPointSweep(t *testing.T) {
	retain1 := func(cfg *Config) { cfg.Retain = 1 }
	seed := func() *faultfs.Mem {
		mem := faultfs.NewMem()
		c := newTestCapturer(t, mem, retain1)
		c.store("heap", "periodic", []byte("first"), 0)
		c.Close()
		return mem
	}
	dry := seed()
	before := dry.Ops()
	newTestCapturer(t, dry, retain1).store("heap", "periodic", []byte("second"), 0)
	ops := dry.Ops() - before
	if ops < 5 {
		t.Fatalf("an evicting store took only %d ops — sweep degenerate", ops)
	}

	for k := 1; k <= ops; k++ {
		mem := seed()
		mem.CrashAt(mem.Ops() + k)
		c := newTestCapturer(t, mem, retain1)
		c.store("heap", "periodic", []byte("second"), 0)
		c.Close()

		// Restart: the files the crashed process left, with a working disk.
		disk := faultfs.NewMem()
		for _, n := range mem.Names() {
			disk.Put(n, mem.Bytes(n))
		}
		c2 := newTestCapturer(t, disk, retain1)
		listed := map[string]bool{}
		for _, e := range c2.Entries() {
			listed["ring/"+e.File] = true
			if disk.Bytes("ring/"+e.File) == nil {
				t.Fatalf("crash at op +%d: manifest lists missing %s", k, e.File)
			}
			rec := httptest.NewRecorder()
			c2.ServeHTTP(rec, httptest.NewRequest("GET", "/profilez?id="+itoa(e.Seq), nil))
			if rec.Code != 200 {
				t.Fatalf("crash at op +%d: ?id=%d: %d %s", k, e.Seq, rec.Code, rec.Body)
			}
		}
		if len(listed) != 1 {
			t.Fatalf("crash at op +%d: %d entries after restart, want 1", k, len(listed))
		}
		for _, n := range disk.Names() {
			if strings.HasSuffix(n, ".pprof") && !listed[n] {
				t.Fatalf("crash at op +%d: %s left outside the manifest", k, n)
			}
		}
	}
}

func TestManifestMissingIsFreshRing(t *testing.T) {
	c := newTestCapturer(t, faultfs.NewMem(), nil)
	if len(c.Entries()) != 0 || c.Stats().Recovered != 0 {
		t.Fatalf("fresh ring not empty: %+v", c.Stats())
	}
}

// TestCaptureNowRecordsFlight checks the incident path: a real capture
// lands in the ring, stamps the flight sequence observed at capture time,
// and records a prof_capture flight event.
func TestCaptureNowRecordsFlight(t *testing.T) {
	fl := trace.NewFlight(64, "")
	mem := faultfs.NewMem()
	c := newTestCapturer(t, mem, func(cfg *Config) { cfg.Flight = fl })

	// Simulate the incident the capture should be attributable to.
	fl.Record(trace.CompSLO, trace.EvSLOUnhealthy, 1, 7)
	incidentSeq := fl.Seq()

	c.CaptureNow("slo-unhealthy")
	waitFor(t, func() bool { return len(c.Entries()) >= 2 }) // cpu + heap

	for _, e := range c.Entries() {
		if e.FlightSeq < incidentSeq {
			t.Fatalf("capture %+v predates incident flight seq %d", e, incidentSeq)
		}
		if e.Reason != "slo-unhealthy" {
			t.Fatalf("capture reason = %q", e.Reason)
		}
	}
	if c.Stats().Incidents != 1 {
		t.Fatalf("incidents = %d, want 1", c.Stats().Incidents)
	}
	var profEvents int
	for _, ev := range fl.Snapshot() {
		if ev.Component == "prof" && ev.Kind == "prof_capture" {
			profEvents++
		}
	}
	if profEvents < 2 {
		t.Fatalf("want >=2 prof_capture flight events, got %d", profEvents)
	}
}

func TestCaptureNowRateLimited(t *testing.T) {
	mem := faultfs.NewMem()
	c := newTestCapturer(t, mem, func(cfg *Config) { cfg.incidentMinGap = time.Hour })
	c.CaptureNow("stall-watchdog")
	c.CaptureNow("stall-watchdog")
	c.CaptureNow("stall-watchdog")
	waitFor(t, func() bool { return c.Stats().Captures >= 2 })
	if got := c.Stats().Incidents; got != 1 {
		t.Fatalf("incidents = %d, want 1 (rate limit broken)", got)
	}
}

func TestPeriodicLoopCaptures(t *testing.T) {
	mem := faultfs.NewMem()
	c := newTestCapturer(t, mem, func(cfg *Config) {
		cfg.Period = 60 * time.Millisecond
		cfg.CPUSlice = 10 * time.Millisecond
	})
	// One full round = cpu + heap + mutex + block.
	waitFor(t, func() bool { return c.Stats().Captures >= 4 })
	kinds := map[string]bool{}
	for _, e := range c.Entries() {
		kinds[e.Kind] = true
	}
	for _, k := range []string{"cpu", "heap", "mutex", "block"} {
		if !kinds[k] {
			t.Fatalf("periodic round missing %s profile; have %v", k, kinds)
		}
	}
}

func TestProfilezEndpoint(t *testing.T) {
	mem := faultfs.NewMem()
	c := newTestCapturer(t, mem, nil)

	// Synchronous capture via POST ?capture.
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest("POST", "/profilez?capture=manual", nil))
	if rec.Code != 200 {
		t.Fatalf("capture: %d %s", rec.Code, rec.Body)
	}

	// Manifest view.
	rec = httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest("GET", "/profilez", nil))
	var doc profilezDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("manifest json: %v", err)
	}
	if len(doc.Entries) < 2 || doc.Stats.Captures < 2 {
		t.Fatalf("manifest too small: %+v", doc.Stats)
	}

	// Fetch one profile by id.
	var cpu *Entry
	for i := range doc.Entries {
		if doc.Entries[i].Kind == "cpu" {
			cpu = &doc.Entries[i]
		}
	}
	if cpu == nil {
		t.Fatal("no cpu entry after manual capture")
	}
	rec = httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest("GET", "/profilez?id="+itoa(cpu.Seq), nil))
	if rec.Code != 200 || int64(rec.Body.Len()) != cpu.Bytes {
		t.Fatalf("fetch by id: code %d, %d bytes (want %d)", rec.Code, rec.Body.Len(), cpu.Bytes)
	}
	requirePprof(t, "fetched cpu profile", rec.Body.Bytes())

	// Error paths.
	for _, url := range []string{"/profilez?id=xyz", "/profilez?id=9999", "/profilez?merged=cpu&since=zzz", "/profilez?merged=nosuch"} {
		rec = httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code == 200 {
			t.Fatalf("%s: want error status, got 200", url)
		}
	}
	rec = httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest("GET", "/profilez?capture=x", nil))
	if rec.Code != 405 {
		t.Fatalf("GET capture: want 405, got %d", rec.Code)
	}

	// Keys the endpoint does not serve are 400s that name the key; a
	// merged window points at ?id= and the toolchain's merge.
	for url, want := range map[string][]string{
		"/profilez?merged=cpu": {"?id=", "go tool pprof"},
		"/profilez?bogus=1":    {`"bogus"`},
	} {
		rec = httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var body struct{ Error string }
		json.Unmarshal(rec.Body.Bytes(), &body)
		for _, w := range want {
			if rec.Code != 400 || !strings.Contains(body.Error, w) {
				t.Fatalf("%s: want 400 naming %s, got %d %s", url, w, rec.Code, rec.Body)
			}
		}
	}
}

func TestNilCapturerIsNoOp(t *testing.T) {
	var c *Capturer
	c.CaptureNow("anything")
	c.Close()
	if st := c.Stats(); st.Captures != 0 {
		t.Fatalf("nil stats: %+v", st)
	}
	if c.Entries() != nil {
		t.Fatal("nil entries")
	}
}

func TestSanitizeReason(t *testing.T) {
	for in, want := range map[string]string{
		"slo-unhealthy":          "slo-unhealthy",
		"Mem Pressure!":          "mem-pressure-",
		"":                       "unknown",
		"a/b\\c":                 "a-b-c",
		strings.Repeat("x", 100): strings.Repeat("x", 40),
	} {
		if got := sanitizeReason(in); got != want {
			t.Fatalf("sanitizeReason(%q) = %q, want %q", in, got, want)
		}
	}
}

// requirePprof fails the test unless `go tool pprof` parses data.
func requirePprof(t *testing.T, what string, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "profile.pprof")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("go", "tool", "pprof", "-raw", "-symbolize=none", path).CombinedOutput(); err != nil {
		t.Fatalf("%s unparsable by go tool pprof: %v\n%s", what, err, out)
	}
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in 5s")
}
