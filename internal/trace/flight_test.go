package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestFlightRecordAndSnapshot(t *testing.T) {
	f := NewFlight(8, "")
	f.Record(CompMemory, EvMemLevel, 1, 100)
	f.Record(CompSession, EvSlowEviction, 1, 0)
	f.Record(CompMemory, EvMemLevel, 2, 200)
	evs := f.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("not sorted by seq: %+v", evs)
		}
	}
	if evs[0].Component != "memory" || evs[0].Kind != "mem_level" || evs[0].A != 1 {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[1].Component != "session" || evs[1].Kind != "slow_eviction" {
		t.Fatalf("second event = %+v", evs[1])
	}
	if f.Seq() != 3 {
		t.Fatalf("seq = %d", f.Seq())
	}
}

func TestFlightRingWrap(t *testing.T) {
	f := NewFlight(4, "")
	for i := uint64(0); i < 10; i++ {
		f.Record(CompWatermark, EvWatermarkAdvance, i, 0)
	}
	evs := f.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	// The survivors are the newest 4 (payload a = 6..9).
	for i, ev := range evs {
		if want := uint64(6 + i); ev.A != want {
			t.Errorf("event %d: a = %d, want %d", i, ev.A, want)
		}
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *Flight
	f.Record(CompWAL, EvWALRotate, 1, 2)
	f.AutoDump("nothing")
	if f.Snapshot() != nil || f.Seq() != 0 {
		t.Fatal("nil flight not inert")
	}
	if err := f.DumpToFile("x", "y"); err != nil {
		t.Fatal(err)
	}
}

func TestFlightConcurrentRecord(t *testing.T) {
	// Many writers across components while readers snapshot; run under
	// -race. Every snapshotted event must be well-formed (nonzero seq,
	// known component/kind).
	f := NewFlight(32, "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record(Component(w%int(numComponents)), EvWatermarkAdvance, uint64(i), uint64(w))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, ev := range f.Snapshot() {
				if ev.Seq == 0 || ev.Component == "" || ev.Kind == "unknown" {
					t.Errorf("malformed event %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if f.Seq() != 8*500 {
		t.Fatalf("seq = %d, want %d", f.Seq(), 8*500)
	}
}

func TestFlightDumpToFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	f := NewFlight(8, path)
	f.Record(CompMemory, EvMemLevel, 1, 50)
	f.Record(CompSession, EvSlowEviction, 1, 0)
	if err := f.DumpToFile(path, "test"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc FlightDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("dump not valid JSON: %v", err)
	}
	if doc.Reason != "test" || len(doc.Events) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if f.Dumps() != 1 {
		t.Fatalf("dumps = %d", f.Dumps())
	}
}

func TestFlightAutoDumpRateLimit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	f := NewFlight(8, path)
	f.Record(CompSession, EvSlowEviction, 1, 0)
	f.AutoDump("first")
	// Immediate second call is rate-limited away (1/s).
	f.AutoDump("second")
	deadline := time.Now().Add(2 * time.Second)
	for f.Dumps() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-dump never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := f.Dumps(); n != 1 {
		t.Fatalf("dumps = %d, want 1 (rate limit)", n)
	}
	var doc FlightDoc
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Reason != "first" {
		t.Fatalf("reason = %q", doc.Reason)
	}
}

func TestFlightWriteJSONEmpty(t *testing.T) {
	f := NewFlight(4, "")
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf, ""); err != nil {
		t.Fatal(err)
	}
	var doc FlightDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Events == nil || len(doc.Events) != 0 {
		t.Fatalf("empty doc events = %#v", doc.Events)
	}
}

// TestFlightNamesComplete: every component and event kind exports a
// non-empty name of its own. componentNames is a fixed-size array, so a
// component dropped from the enum without its name leaves the last slot
// empty and shifts every later name by one.
func TestFlightNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for c := Component(0); c < numComponents; c++ {
		name := c.String()
		if name == "" || name == "unknown" || seen[name] {
			t.Errorf("component %d has name %q (empty, unknown or repeated)", c, name)
		}
		seen[name] = true
	}
	if CompRepl.String() != "repl" || CompProf.String() != "prof" {
		t.Errorf("repl/prof components export %q/%q", CompRepl, CompProf)
	}
	seen = map[string]bool{}
	for k := EventKind(1); k < numEventKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" || seen[name] {
			t.Errorf("event kind %d has name %q (empty, unknown or repeated)", k, name)
		}
		seen[name] = true
	}
	if len(eventKindNames) != int(numEventKinds)-1 {
		t.Errorf("eventKindNames has %d entries, want %d", len(eventKindNames), numEventKinds-1)
	}
}
