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
