package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Fatalf("Throughput = %g", got)
	}
	if got := Throughput(500, 250*time.Millisecond); got != 2000 {
		t.Fatalf("Throughput = %g", got)
	}
	if got := Throughput(10, 0); got != 0 {
		t.Fatalf("zero-elapsed throughput = %g", got)
	}
}

func TestEffectiveness(t *testing.T) {
	var e Effectiveness
	if e.Value() != 1 {
		t.Fatal("no joins should be fully effective")
	}
	e.Observe(5, 10)  // 0.5
	e.Observe(10, 10) // 1.0
	e.Observe(0, 0)   // empty visit counts as 1.0
	if got := e.Value(); math.Abs(got-(0.5+1+1)/3) > 1e-12 {
		t.Fatalf("effectiveness = %g", got)
	}
	var o Effectiveness
	o.Observe(0, 10) // 0.0
	e.Merge(&o)
	if got := e.Value(); math.Abs(got-(0.5+1+1+0)/4) > 1e-12 {
		t.Fatalf("merged effectiveness = %g", got)
	}
}

func TestUnbalancedness(t *testing.T) {
	if got := Unbalancedness(nil); got != 0 {
		t.Fatalf("empty = %g", got)
	}
	if got := Unbalancedness([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("balanced = %g", got)
	}
	if got := Unbalancedness([]float64{0, 0, 0, 0}); got != 0 {
		t.Fatalf("all-zero = %g", got)
	}
	// One joiner does all the work of 4: stddev/mu = sqrt(3).
	got := Unbalancedness([]float64{4, 0, 0, 0})
	if math.Abs(got-math.Sqrt(3)) > 1e-12 {
		t.Fatalf("skewed = %g, want sqrt(3)", got)
	}
	// Skew ranks correctly.
	if Unbalancedness([]float64{3, 1, 1, 1}) >= Unbalancedness([]float64{4, 0, 0, 0}) {
		t.Fatal("milder skew not ranked lower")
	}
}

func TestCDF(t *testing.T) {
	r1 := NewLatencyRecorder(8)
	r2 := NewLatencyRecorder(8)
	for i := 1; i <= 50; i++ {
		r1.Record(time.Duration(i) * time.Millisecond)
	}
	for i := 51; i <= 100; i++ {
		r2.Record(time.Duration(i) * time.Millisecond)
	}
	c := MergeCDF(r1, r2)
	if len(c.Sorted) != 100 {
		t.Fatalf("merged %d samples", len(c.Sorted))
	}
	if got := c.Quantile(0); got != time.Millisecond {
		t.Fatalf("p0 = %v", got)
	}
	if got := c.Quantile(1); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := c.Quantile(0.5); got < 49*time.Millisecond || got > 52*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
}

// TestQuantileNearestRank is the regression test for the index-truncation
// bug: int(q*(len-1)) floored, so p99 of 1..100 returned 99 instead of
// 100 and high quantiles of small sample sets biased low.
func TestQuantileNearestRank(t *testing.T) {
	r := NewLatencyRecorder(100)
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	c := MergeCDF(r)
	if got := c.Quantile(0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 of 1..100 = %v, want 99ms (nearest rank 99)", got)
	}
	if got := c.Quantile(0.999); got != 100*time.Millisecond {
		t.Fatalf("p99.9 of 1..100 = %v, want 100ms", got)
	}
	// The small-set case the truncation bug got most wrong: with 4
	// samples, p75 must be the 3rd value (ceil(0.75*4) = 3), and p99 the
	// maximum — the floor formula returned index int(0.99*3) = 2.
	small := CDF{Sorted: []int64{10, 20, 30, 40}}
	if got := small.Quantile(0.75); got != 30 {
		t.Fatalf("p75 of 4 samples = %v, want 30", got)
	}
	if got := small.Quantile(0.99); got != 40 {
		t.Fatalf("p99 of 4 samples = %v, want the maximum 40", got)
	}
	if got := small.Quantile(0.25); got != 10 {
		t.Fatalf("p25 of 4 samples = %v, want 10", got)
	}
	one := CDF{Sorted: []int64{7}}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got != 7 {
			t.Fatalf("single-sample q=%g = %v", q, got)
		}
	}
}

// TestReservoirRecorder covers the long-running-server fix: the buffer
// never exceeds its cap, sampling is deterministic under a fixed seed, and
// retained samples stay representative.
func TestReservoirRecorder(t *testing.T) {
	const max = 1000
	r := NewReservoirRecorder(max, 12345)
	const n = 100000
	for i := 1; i <= n; i++ {
		r.Record(time.Duration(i))
	}
	if r.Len() != max {
		t.Fatalf("retained %d samples, cap %d", r.Len(), max)
	}
	if r.Seen() != n {
		t.Fatalf("seen %d, want %d", r.Seen(), n)
	}

	// Determinism: an identical run retains identical samples.
	r2 := NewReservoirRecorder(max, 12345)
	for i := 1; i <= n; i++ {
		r2.Record(time.Duration(i))
	}
	a, b := MergeCDF(r), MergeCDF(r2)
	for i := range a.Sorted {
		if a.Sorted[i] != b.Sorted[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a.Sorted[i], b.Sorted[i])
		}
	}
	// A different seed retains a different subset.
	r3 := NewReservoirRecorder(max, 999)
	for i := 1; i <= n; i++ {
		r3.Record(time.Duration(i))
	}
	c3 := MergeCDF(r3)
	same := true
	for i := range a.Sorted {
		if a.Sorted[i] != c3.Sorted[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds retained identical reservoirs")
	}

	// Representativeness: the median of a uniform 1..n stream should land
	// near n/2 (reservoir sampling is unbiased; allow a generous band).
	med := int64(a.Quantile(0.5))
	if med < n/2-n/10 || med > n/2+n/10 {
		t.Fatalf("reservoir median %d too far from %d", med, n/2)
	}

	// Below the cap the recorder retains everything.
	small := NewReservoirRecorder(max, 1)
	for i := 0; i < 10; i++ {
		small.Record(time.Duration(i))
	}
	if small.Len() != 10 || small.Seen() != 10 {
		t.Fatalf("under-cap retention: len=%d seen=%d", small.Len(), small.Seen())
	}
}

// TestEffectivenessConcurrentValue reads a live accumulator while a single
// writer observes — the statusz snapshot pattern, race-checked.
func TestEffectivenessConcurrentValue(t *testing.T) {
	var e Effectiveness
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			e.Observe(1, 2)
		}
	}()
	for {
		select {
		case <-done:
			if v := e.Value(); math.Abs(v-0.5) > 1e-9 {
				t.Fatalf("final value = %g", v)
			}
			return
		default:
			if v := e.Value(); v < 0 || v > 1 {
				t.Fatalf("mid-run value out of range: %g", v)
			}
		}
	}
}

func TestUtilizationLimitHistory(t *testing.T) {
	u := NewUtilization(2, time.Second)
	u.LimitHistory(3)
	for i := 0; i < 10; i++ {
		u.AddBusy(0, time.Duration(i)*100*time.Millisecond)
		u.Snapshot()
	}
	h := u.History()
	if len(h) != 3 {
		t.Fatalf("history rows = %d, want 3", len(h))
	}
	// The retained rows are the newest ones (epochs 7, 8, 9).
	if h[0][0] != 0.7 || h[2][0] != 0.9 {
		t.Fatalf("retained rows %v, want newest three", h)
	}
	// Shrinking an existing history truncates to the newest rows.
	v := NewUtilization(1, time.Second)
	for i := 0; i < 5; i++ {
		v.AddBusy(0, time.Duration(i)*100*time.Millisecond)
		v.Snapshot()
	}
	v.LimitHistory(2)
	if h := v.History(); len(h) != 2 || h[1][0] != 0.4 {
		t.Fatalf("post-hoc limit: %v", h)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.Quantile(0.5) != 0 {
		t.Fatal("empty CDF should degrade to zeros")
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{Lookup: 3 * time.Second, Match: time.Second}
	b.Add(Breakdown{Other: 4 * time.Second, Match: time.Second})
	if b.Total() != 9*time.Second {
		t.Fatalf("total = %v", b.Total())
	}
	l, m, o := b.Fractions()
	if math.Abs(l-3.0/9) > 1e-12 || math.Abs(m-2.0/9) > 1e-12 || math.Abs(o-4.0/9) > 1e-12 {
		t.Fatalf("fractions = %g %g %g", l, m, o)
	}
	var empty Breakdown
	l, m, o = empty.Fractions()
	if l != 0 || m != 0 || o != 0 {
		t.Fatal("empty breakdown fractions non-zero")
	}
}

func TestUtilization(t *testing.T) {
	u := NewUtilization(2, 100*time.Millisecond)
	u.AddBusy(0, 50*time.Millisecond)
	u.AddBusy(1, 200*time.Millisecond) // clamped to 1
	row := u.Snapshot()
	if row[0] != 0.5 || row[1] != 1 {
		t.Fatalf("snapshot = %v", row)
	}
	// Counters reset per epoch.
	row = u.Snapshot()
	if row[0] != 0 || row[1] != 0 {
		t.Fatalf("second snapshot = %v", row)
	}
	if len(u.History()) != 2 {
		t.Fatalf("history rows = %d", len(u.History()))
	}
	// Smoothness: constant per-joiner shares are perfectly smooth even
	// when absolute load varies.
	c := NewUtilization(2, time.Second)
	for i := 0; i < 5; i++ {
		c.AddBusy(0, time.Duration(i+1)*100*time.Millisecond)
		c.AddBusy(1, time.Duration(i+1)*100*time.Millisecond)
		c.Snapshot()
	}
	if got := c.Smoothness(); got != 0 {
		t.Fatalf("constant-share smoothness = %g", got)
	}
	if got := c.Imbalance(); got != 0 {
		t.Fatalf("balanced imbalance = %g", got)
	}
	// A hot spot alternating between two joiners: rough and imbalanced.
	rough := NewUtilization(2, time.Second)
	for i := 0; i < 6; i++ {
		rough.AddBusy(i%2, time.Second)
		rough.Snapshot()
	}
	if got := rough.Smoothness(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("alternating smoothness = %g, want 0.5", got)
	}
	if got := rough.Imbalance(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("alternating imbalance = %g, want 1", got)
	}
	// Empty history degrades to zero.
	if got := NewUtilization(2, time.Second).Imbalance(); got != 0 {
		t.Fatalf("empty imbalance = %g", got)
	}
}

// TestQuickUnbalancednessInvariants: non-negative, zero iff uniform,
// scale-invariant.
func TestQuickUnbalancednessInvariants(t *testing.T) {
	f := func(loads []uint16, scale uint8) bool {
		ws := make([]float64, len(loads))
		uniform := true
		for i, l := range loads {
			ws[i] = float64(l)
			if l != loads[0] {
				uniform = false
			}
		}
		u := Unbalancedness(ws)
		if u < 0 {
			return false
		}
		if uniform && u != 0 {
			return false
		}
		// Scale invariance (coefficient of variation).
		k := float64(scale%7) + 1
		scaled := make([]float64, len(ws))
		for i := range ws {
			scaled[i] = ws[i] * k
		}
		return math.Abs(Unbalancedness(scaled)-u) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
