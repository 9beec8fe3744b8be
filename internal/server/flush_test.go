package server

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"oij/internal/wire"
)

// TestFlushAckOrderAndBoundedGoroutines interleaves 10k flush frames with
// requests on one session. Every flush ack must arrive after the answer
// to every request sent before that flush, and flushes must not cost a
// goroutine each: the process goroutine count stays bounded throughout.
func TestFlushAckOrderAndBoundedGoroutines(t *testing.T) {
	const flushes = 10_000
	_, addr := startServer(t, baseCfg())
	// A lost ack fails the read instead of hanging the test.
	c, err := DialWith(addr, DialOptions{ReadTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// before[k] is the number of requests sent ahead of flush k: zero to
	// three per flush, so some flushes find nothing outstanding and
	// others wait on answers still in the engine.
	before := make([]int, flushes)
	sent := 0
	for k := range before {
		sent += k % 4
		before[k] = sent
	}

	baseline := runtime.NumGoroutine()
	var peak atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()

	sendErr := make(chan error, 1)
	go func() {
		ts := int64(1000)
		for k := 0; k < flushes; k++ {
			for i := 0; i < k%4; i++ {
				ts++
				if err := c.SendProbe(uint64(k%5), ts, 1); err != nil {
					sendErr <- err
					return
				}
				if _, err := c.SendBase(uint64(k%5), ts, 0); err != nil {
					sendErr <- err
					return
				}
			}
			if err := c.Barrier(); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	results, acks := 0, 0
	for acks < flushes {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch m.Kind {
		case wire.TagResult:
			results++
		case wire.TagFlush:
			if results < before[acks] {
				t.Fatalf("flush %d acked after %d answers, %d requests were sent before it", acks, results, before[acks])
			}
			acks++
		default:
			t.Fatalf("unexpected frame kind %d", m.Kind)
		}
	}
	close(stop)
	<-sampled
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if results != sent {
		t.Fatalf("got %d answers for %d requests", results, sent)
	}
	// The session adds its reader and writer; anything per flush would
	// add thousands.
	if p := peak.Load(); p > int64(baseline)+16 {
		t.Fatalf("goroutines peaked at %d (baseline %d) across %d flushes", p, baseline, flushes)
	}
}
