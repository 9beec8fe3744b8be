package window

import (
	"math"
	"testing"
	"testing/quick"

	"oij/internal/tuple"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		s  Spec
		ok bool
	}{
		{Spec{Pre: 100, Fol: 0, Lateness: 10}, true},
		{Spec{Pre: 0, Fol: 100}, true},
		{Spec{Pre: 100, Fol: 100, Lateness: 0}, true},
		{Spec{Pre: -1}, false},
		{Spec{Pre: 10, Fol: -1}, false},
		{Spec{Pre: 10, Lateness: -5}, false},
		{Spec{}, false}, // empty window
	}
	for _, c := range cases {
		if err := c.s.Validate(); (err == nil) != c.ok {
			t.Errorf("%v.Validate() = %v, want ok=%v", c.s, err, c.ok)
		}
	}
}

// TestValidateHorizonOverflow: WAL retention and Scale-OIJ's eviction
// horizon compute 2·(PRE+FOL)+lateness, so a spec where that sum wraps is
// invalid even though each field is non-negative.
func TestValidateHorizonOverflow(t *testing.T) {
	const max = math.MaxInt64
	cases := []struct {
		s  Spec
		ok bool
	}{
		{Spec{Pre: max / 2}, true},
		{Spec{Pre: max/2 + 1}, false},
		{Spec{Pre: max / 4, Fol: max / 4}, true},
		{Spec{Pre: max / 4, Fol: max/4 + 1}, true}, // 2·(2^62-1)
		{Spec{Pre: max / 4, Fol: max/4 + 2}, false},
		{Spec{Pre: 1, Lateness: max - 2}, true},
		{Spec{Pre: 1, Lateness: max - 1}, false},
		{Spec{Pre: max, Fol: max}, false}, // PRE+FOL itself wraps
		{Spec{Fol: 1, Lateness: max}, false},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%v.Validate() = %v, want ok=%v", c.s, err, c.ok)
		}
		if err == nil && 2*c.s.Len()+c.s.Lateness < 0 {
			t.Errorf("%v accepted with a wrapped horizon", c.s)
		}
	}
}

func TestBoundsAndContains(t *testing.T) {
	s := Spec{Pre: 100, Fol: 50}
	lo, hi := s.Bounds(1000)
	if lo != 900 || hi != 1050 {
		t.Fatalf("Bounds = (%d,%d)", lo, hi)
	}
	if s.Len() != 150 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Inclusive both ends, per Definition 2.
	for _, c := range []struct {
		probe tuple.Time
		in    bool
	}{{899, false}, {900, true}, {1000, true}, {1050, true}, {1051, false}} {
		if got := s.Contains(1000, c.probe); got != c.in {
			t.Errorf("Contains(1000, %d) = %v", c.probe, got)
		}
	}
}

func TestComplete(t *testing.T) {
	s := Spec{Pre: 100, Fol: 50}
	if s.Complete(1000, 1049) {
		t.Error("window complete before watermark reached ts+Fol")
	}
	if !s.Complete(1000, 1050) {
		t.Error("window not complete at watermark == ts+Fol")
	}
}

func TestEvictable(t *testing.T) {
	s := Spec{Pre: 100, Fol: 0}
	// A probe at ts can match base tuples up to ts+Pre; it is dead once
	// the watermark passes that.
	if s.Evictable(500, 600) {
		t.Error("probe evicted while a base at wm could still match it")
	}
	if !s.Evictable(500, 601) {
		t.Error("probe not evicted after its last possible match")
	}
}

func TestOverlap(t *testing.T) {
	s := Spec{Pre: 100, Fol: 0}
	if got := s.Overlap(1000, 1000); got != 100 {
		t.Errorf("identical windows overlap = %d", got)
	}
	if got := s.Overlap(1000, 1040); got != 60 {
		t.Errorf("overlap = %d, want 60", got)
	}
	if got := s.Overlap(1040, 1000); got != 60 {
		t.Errorf("overlap not symmetric: %d", got)
	}
	if got := s.Overlap(1000, 1100); got != 0 {
		t.Errorf("disjoint windows overlap = %d", got)
	}
	if got := s.Overlap(1000, 5000); got != 0 {
		t.Errorf("far windows overlap = %d", got)
	}
}

// TestQuickContainsMatchesBounds property-tests Contains against Bounds.
func TestQuickContainsMatchesBounds(t *testing.T) {
	f := func(pre, fol uint16, base, probe int32) bool {
		s := Spec{Pre: tuple.Time(pre), Fol: tuple.Time(fol)}
		lo, hi := s.Bounds(tuple.Time(base))
		want := tuple.Time(probe) >= lo && tuple.Time(probe) <= hi
		return s.Contains(tuple.Time(base), tuple.Time(probe)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEvictionSafety: an evictable probe is never contained in the
// window of any base tuple that can still arrive (ts >= wm).
func TestQuickEvictionSafety(t *testing.T) {
	f := func(pre, fol uint16, probe int32, wm int32, futureOffset uint16) bool {
		s := Spec{Pre: tuple.Time(pre), Fol: tuple.Time(fol)}
		p, w := tuple.Time(probe), tuple.Time(wm)
		if !s.Evictable(p, w) {
			return true
		}
		futureBase := w + tuple.Time(futureOffset)
		return !s.Contains(futureBase, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExcludeCurrentTime(t *testing.T) {
	s := Spec{Pre: 100, Fol: 0, ExcludeCurrentTime: true}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid exclude-current spec rejected: %v", err)
	}
	if s.Contains(1000, 1000) {
		t.Fatal("same-moment probe not excluded")
	}
	if !s.Contains(1000, 999) || !s.Contains(1000, 900) {
		t.Fatal("in-window probes excluded")
	}
	lo, hi := s.Bounds(1000)
	if lo != 900 || hi != 999 {
		t.Fatalf("bounds = (%d,%d)", lo, hi)
	}
	bad := Spec{Pre: 100, Fol: 50, ExcludeCurrentTime: true}
	if err := bad.Validate(); err == nil {
		t.Fatal("exclude-current with FOL accepted")
	}
}
