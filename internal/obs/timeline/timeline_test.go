package timeline

import (
	"sync"
	"testing"
	"time"
)

func at(unix int64) time.Time { return time.Unix(unix, 0) }

// TestTierAlignmentAndDownsampling: ticks landing inside one coarse slot
// fold into a single aligned point whose avg/max/n aggregate them, while
// the fine tier keeps them apart.
func TestTierAlignmentAndDownsampling(t *testing.T) {
	tl := newTimeline([]string{"v"}, []TierSpec{
		{Step: time.Second, Slots: 60},
		{Step: 10 * time.Second, Slots: 30},
	})
	// 20 ticks starting at an offset that is NOT 10s-aligned, so alignment
	// has to come from bucket arithmetic, not from the first sample.
	for i := int64(0); i < 20; i++ {
		tl.Record(at(1003+i), []float64{float64(i)})
	}
	fine, err := tl.Query([]string{"v"}, "1s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fine.Series[0].Points); n != 20 {
		t.Fatalf("fine tier points = %d, want 20", n)
	}
	if p := fine.Series[0].Points[0]; p.TS != 1003 || p.Avg != 0 || p.N != 1 {
		t.Fatalf("fine first point %+v", p)
	}

	coarse, err := tl.Query([]string{"v"}, "10s", 0)
	if err != nil {
		t.Fatal(err)
	}
	pts := coarse.Series[0].Points
	// Ticks 1003..1022 span aligned buckets [1000,1010), [1010,1020), [1020,1030).
	if len(pts) != 3 {
		t.Fatalf("coarse tier points = %d (%+v), want 3", len(pts), pts)
	}
	if pts[0].TS != 1000 || pts[0].N != 7 {
		t.Fatalf("first coarse slot %+v, want ts=1000 n=7", pts[0])
	}
	if pts[1].TS != 1010 || pts[1].N != 10 || pts[1].Max != 16 {
		// values 7..16 landed in [1010,1020)
		t.Fatalf("second coarse slot %+v", pts[1])
	}
	if wantAvg := (7.0 + 16.0) / 2; pts[1].Avg != wantAvg {
		t.Fatalf("second coarse avg = %g, want %g", pts[1].Avg, wantAvg)
	}
}

// TestRingWrapAround: a tier retains exactly its slot count; older slots
// are overwritten in arrival order and queries return only the retained
// window, oldest first.
func TestRingWrapAround(t *testing.T) {
	tl := newTimeline([]string{"v"}, []TierSpec{{Step: time.Second, Slots: 5}})
	for i := int64(0); i < 12; i++ {
		tl.Record(at(100+i), []float64{float64(i)})
	}
	doc, err := tl.Query(nil, "1s", 0)
	if err != nil {
		t.Fatal(err)
	}
	pts := doc.Series[0].Points
	if len(pts) != 5 {
		t.Fatalf("retained %d points, want 5", len(pts))
	}
	for i, p := range pts {
		wantTS := int64(100 + 7 + i) // last 5 of 12 ticks
		if p.TS != wantTS || p.Avg != float64(7+i) {
			t.Fatalf("point %d = %+v, want ts=%d avg=%d", i, p, wantTS, 7+i)
		}
	}
}

// TestEpochGapsAfterStall: a sampler stall advances the ring by one slot
// when it resumes; the skipped buckets are absent from query results, not
// zero-filled or interpolated.
func TestEpochGapsAfterStall(t *testing.T) {
	tl := newTimeline([]string{"v"}, []TierSpec{{Step: time.Second, Slots: 10}})
	tl.Record(at(200), []float64{1})
	tl.Record(at(201), []float64{2})
	// 6-second stall.
	tl.Record(at(207), []float64{3})
	tl.Record(at(208), []float64{4})
	doc, err := tl.Query(nil, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var ts []int64
	for _, p := range doc.Series[0].Points {
		ts = append(ts, p.TS)
	}
	want := []int64{200, 201, 207, 208}
	if len(ts) != len(want) {
		t.Fatalf("timestamps %v, want %v", ts, want)
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("timestamps %v, want %v", ts, want)
		}
	}
	// The stall cost at most one ring slot: 4 samples occupy 4 slots, so
	// capacity for 6 more remains even though 9 wall seconds elapsed.
	for i := int64(0); i < 6; i++ {
		tl.Record(at(209+i), []float64{9})
	}
	doc, _ = tl.Query(nil, "", 0)
	if got := len(doc.Series[0].Points); got != 10 {
		t.Fatalf("after refill: %d points, want 10 (stall must not burn slots)", got)
	}
}

// TestSinceAndSeriesSelection: since filters by slot start; unknown series
// and resolutions are errors.
func TestSinceAndSeriesSelection(t *testing.T) {
	tl := newTimeline([]string{"a", "b"}, []TierSpec{{Step: time.Second, Slots: 10}})
	for i := int64(0); i < 6; i++ {
		tl.Record(at(300+i), []float64{float64(i), float64(10 * i)})
	}
	doc, err := tl.Query([]string{"b"}, "1s", 303)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 1 || doc.Series[0].Name != "b" {
		t.Fatalf("series selection: %+v", doc.Series)
	}
	if n := len(doc.Series[0].Points); n != 3 {
		t.Fatalf("since filter kept %d points, want 3", n)
	}
	if p := doc.Series[0].Points[0]; p.TS != 303 || p.Avg != 30 {
		t.Fatalf("first point %+v", p)
	}
	if _, err := tl.Query([]string{"nope"}, "", 0); err == nil {
		t.Fatal("unknown series accepted")
	}
	if _, err := tl.Query(nil, "5s", 0); err == nil {
		t.Fatal("unknown resolution accepted")
	}
}

// TestNaNSkipsSeries: NaN marks a series as absent for the tick without
// disturbing the others.
func TestNaNSkipsSeries(t *testing.T) {
	tl := New([]string{"a", "b"})
	nan := func() float64 { var z float64; return z / z }
	tl.Record(at(400), []float64{1, nan()})
	doc, err := tl.Query(nil, "1s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Series[0].Points); n != 1 {
		t.Fatalf("series a points = %d", n)
	}
	if n := len(doc.Series[1].Points); n != 0 {
		t.Fatalf("series b points = %d, want 0 (NaN tick)", n)
	}
}

// TestBoundedMemoryAndDefaults: default tiers cover 5m/1h/24h and the
// footprint is fixed at construction regardless of how long the server
// runs.
func TestBoundedMemoryAndDefaults(t *testing.T) {
	names := make([]string, 40)
	for i := range names {
		names[i] = string(rune('a' + i%26))
	}
	tl := New(names)
	res := tl.Resolutions()
	if len(res) != 3 || res[0] != "1s" || res[1] != "10s" || res[2] != "1m" {
		t.Fatalf("default resolutions = %v", res)
	}
	mem := tl.MemoryBytes()
	// (300+360+1440) slots x 40 series x 20 bytes = 1.68 MB.
	if mem != (300+360+1440)*40*20 {
		t.Fatalf("memory = %d", mem)
	}
	for i := int64(0); i < 100_000; i++ {
		tl.Record(at(1000+i), make([]float64, 40))
	}
	if tl.MemoryBytes() != mem {
		t.Fatal("memory grew with ticks")
	}
	if tl.Ticks() != 100_000 {
		t.Fatalf("ticks = %d", tl.Ticks())
	}
	// 24h tier retains 1440 slots; 100k 1s-ticks fold into minutes.
	doc, err := tl.Query([]string{names[0]}, "1m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Series[0].Points); n != 1440 {
		t.Fatalf("1m tier points = %d, want full 1440", n)
	}
	if p := doc.Series[0].Points[0]; p.N != 60 {
		t.Fatalf("1m slot folded %d ticks, want 60", p.N)
	}
}

// TestWindowStats: the SLO primitive averages the trailing window on the
// finest tier and reports absence when the window is empty.
func TestWindowStats(t *testing.T) {
	tl := New([]string{"v"})
	if _, _, ok := tl.WindowStats("v", 10*time.Second, at(500)); ok {
		t.Fatal("empty timeline reported a window")
	}
	for i := int64(0); i < 30; i++ {
		tl.Record(at(500+i), []float64{float64(i)})
	}
	avg, max, ok := tl.WindowStats("v", 10*time.Second, at(529))
	if !ok {
		t.Fatal("window empty")
	}
	// Window [519..529] holds values 19..29.
	if max != 29 {
		t.Fatalf("window max = %g", max)
	}
	if avg < 23 || avg > 25 {
		t.Fatalf("window avg = %g, want ~24", avg)
	}
	if _, _, ok := tl.WindowStats("missing", time.Second, at(529)); ok {
		t.Fatal("unknown series reported a window")
	}
}

// TestResolutionsWhileRecording: /statusz lists the resolutions without
// the timeline's mutex while the sampler records; under -race the two
// must not touch the same memory.
func TestResolutionsWhileRecording(t *testing.T) {
	tl := New([]string{"v"})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 2000; i++ {
			tl.Record(at(1000+i), []float64{1})
		}
	}()
	for i := 0; i < 2000; i++ {
		if got := tl.Resolutions(); len(got) != len(defaultTiers) {
			t.Fatalf("Resolutions = %v", got)
		}
	}
	wg.Wait()
}
