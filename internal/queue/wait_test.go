package queue

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// parkedWithin waits until w's consumer has announced it is parking.
func parkedWithin(t *testing.T, w *Waker, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !w.sleeping.Load() {
		if time.Now().After(deadline) {
			t.Fatal("consumer never parked on an empty ring")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestWaitLostWakeupStress pushes 1M items with random producer pauses —
// most of them exactly zero, so pushes land in every phase of the
// consumer's spin/flag/park sequence — and requires every item, in order,
// with the consumer never parked for a second while its ring holds items.
// A lost wakeup shows as that stall; the watchdog reports it and then
// unsticks the consumer so the test ends.
func TestWaitLostWakeupStress(t *testing.T) {
	const n = 1_000_000
	q := NewSPSC[uint64](1024)
	rng := rand.New(rand.NewSource(1))
	pauses := make([]uint16, n)
	for i := range pauses {
		pauses[i] = uint16(rng.Intn(4096))
	}

	var got atomic.Uint64
	stop := make(chan struct{})
	watchdogDone := make(chan struct{})
	go func() {
		defer close(watchdogDone)
		last, since := got.Load(), time.Now()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if g := got.Load(); g != last || q.Len() == 0 {
				last, since = g, time.Now()
				continue
			}
			if d := time.Since(since); d > time.Second {
				t.Errorf("consumer stalled %v at item %d with %d queued (lost wakeup)", d, last, q.Len())
				q.w.signal()
				last, since = got.Load(), time.Now()
			}
		}
	}()

	go func() {
		for i := uint64(0); i < n; i++ {
			for !q.TryPush(i) {
				runtime.Gosched()
			}
			// About 85% of pushes follow with no pause at all; the rest
			// yield, spin for up to 20µs (about the consumer's own spin
			// budget, where the flag/recheck race is tightest) or sleep.
			switch p := pauses[i]; {
			case p < 3500:
			case p < 3900:
				runtime.Gosched()
			case p < 4090:
				for end := time.Now().Add(time.Duration(p-3900) * 100 * time.Nanosecond); time.Now().Before(end); {
				}
			default:
				time.Sleep(time.Duration(p-4090) * 10 * time.Microsecond) // includes Sleep(0)
			}
		}
		q.Close()
	}()

	batch := make([]uint64, 64)
	var next uint64
	for {
		m := q.PopBatch(batch)
		if m == 0 {
			if q.Closed() && q.Len() == 0 {
				break
			}
			q.Wait()
			continue
		}
		for _, v := range batch[:m] {
			if v != next {
				close(stop)
				<-watchdogDone
				t.Fatalf("out of order: got %d want %d", v, next)
			}
			next++
		}
		got.Store(next)
	}
	close(stop)
	<-watchdogDone
	if next != n {
		t.Fatalf("received %d items, want %d", next, n)
	}
}

// TestCloseWakesParkedConsumer: Close alone — no push — unparks the
// consumer, so Drain never waits on an idle joiner.
func TestCloseWakesParkedConsumer(t *testing.T) {
	q := NewSPSC[int](8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !q.Closed() {
			q.Wait()
		}
	}()
	parkedWithin(t, q.w, time.Second)
	q.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close did not wake the parked consumer")
	}
}

// TestPushWakesSharedWaker: rings drained by one consumer share a Waker,
// and one push to any of them wakes the consumer parked on all of them.
func TestPushWakesSharedWaker(t *testing.T) {
	w := NewWaker()
	rings := []*SPSC[int]{NewSPSCWaker[int](8, w), NewSPSCWaker[int](8, w), NewSPSCWaker[int](8, w)}
	ready := func() bool {
		for _, r := range rings {
			if r.Len() > 0 {
				return true
			}
		}
		return false
	}
	for i, r := range rings {
		woke := make(chan struct{})
		go func() {
			defer close(woke)
			for !ready() {
				w.Wait(ready)
			}
		}()
		parkedWithin(t, w, time.Second)
		r.TryPush(i)
		select {
		case <-woke:
		case <-time.After(time.Second):
			t.Fatalf("push to ring %d did not wake the shared consumer", i)
		}
		if v, ok := r.TryPop(); !ok || v != i {
			t.Fatalf("ring %d: pop = %d,%v", i, v, ok)
		}
	}
}

// TestTryPushAllocFreeBusyAndParked: the wake check adds no allocation to
// TryPush — neither while the consumer is busy (flag unset) nor when every
// push finds it parked and must wake it (the whole park/wake cycle of the
// consumer goroutine is counted too).
func TestTryPushAllocFreeBusyAndParked(t *testing.T) {
	q := NewSPSC[int](8)
	if a := testing.AllocsPerRun(1000, func() {
		q.TryPush(1)
		q.TryPop()
	}); a != 0 {
		t.Fatalf("busy consumer: %v allocs per push", a)
	}

	var popped atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := q.TryPop(); ok {
				popped.Add(1)
				continue
			}
			if q.Closed() {
				return
			}
			q.Wait()
		}
	}()
	var pushed int64
	a := testing.AllocsPerRun(200, func() {
		for !q.w.sleeping.Load() {
			runtime.Gosched()
		}
		q.TryPush(1)
		pushed++
		for popped.Load() != pushed {
			runtime.Gosched()
		}
	})
	q.Close()
	<-done
	if a != 0 {
		t.Fatalf("parked consumer: %v allocs per push-and-wake", a)
	}
}

// BenchmarkSPSC moves b.N items through one ring to a consumer that waits
// with Wait. busy: the producer pushes back to back, so the consumer
// rarely parks (the transport's loaded case). parked: the producer pushes
// only once the consumer has parked, so every item pays a full wake-up
// (the idle server's case).
func BenchmarkSPSC(b *testing.B) {
	run := func(b *testing.B, waitParked bool) {
		q := NewSPSC[uint64](8192)
		done := make(chan struct{})
		go func() {
			defer close(done)
			batch := make([]uint64, 64)
			for {
				if q.PopBatch(batch) > 0 {
					continue
				}
				if q.Closed() && q.Len() == 0 {
					return
				}
				q.Wait()
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if waitParked {
				for !q.w.sleeping.Load() || q.Len() > 0 {
					runtime.Gosched()
				}
			}
			for !q.TryPush(uint64(i)) {
				runtime.Gosched()
			}
		}
		q.Close()
		<-done
	}
	b.Run("busy", func(b *testing.B) { run(b, false) })
	b.Run("parked", func(b *testing.B) { run(b, true) })
}
