// Package chaos is a TCP fault-injection proxy for robustness tests: it
// sits between a client and a server and degrades the byte streams flowing
// through it — added latency, bounded stalls, partial writes, dropped and
// refused connections — without either end knowing. The serving path's
// overload-control machinery (admission policies, deadlines, slow-consumer
// eviction, client reconnect/breaker) is exercised end to end by driving
// real traffic through a Proxy while tightening its knobs.
//
// All knobs are atomics: tests flip them mid-flight from the test goroutine
// while pump goroutines apply them per chunk. The zero state forwards bytes
// faithfully, so a Proxy with no faults set is a transparent relay.
package chaos

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy forwards TCP connections to Target, applying the configured faults
// to every chunk relayed in either direction.
type Proxy struct {
	target string
	ln     net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // both legs of every active session
	closed bool
	wg     sync.WaitGroup

	latencyNS  atomic.Int64 // per-chunk delay
	jitterNS   atomic.Int64 // uniform extra delay in [0, jitter)
	chunkBytes atomic.Int64 // max bytes per downstream write (0 = no split)
	stallEvery atomic.Int64 // pause the pump every N chunks (0 = off)
	stallNS    atomic.Int64 // pause duration
	refuseNew  atomic.Bool  // accept-and-immediately-close new connections

	// ForwardedBytes counts payload bytes relayed in both directions.
	ForwardedBytes atomic.Int64
	// DroppedConns counts sessions killed by DropActive.
	DroppedConns atomic.Int64
}

// Listen starts a proxy on 127.0.0.1:0 forwarding to target.
func Listen(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listening address (dial this instead of the
// real server).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetLatency delays every relayed chunk by base plus a uniform random
// amount in [0, jitter).
func (p *Proxy) SetLatency(base, jitter time.Duration) {
	p.latencyNS.Store(int64(base))
	p.jitterNS.Store(int64(jitter))
}

// SetChunk caps the bytes written downstream per write call, forcing the
// receiver through partial reads (0 restores whole-chunk writes).
func (p *Proxy) SetChunk(n int) { p.chunkBytes.Store(int64(n)) }

// SetStall pauses each pump for d after every n relayed chunks (n == 0
// disables stalling).
func (p *Proxy) SetStall(n int, d time.Duration) {
	p.stallNS.Store(int64(d))
	p.stallEvery.Store(int64(n))
}

// SetRefuseNew makes the proxy close new connections immediately (the
// server looks down) while leaving established sessions alone.
func (p *Proxy) SetRefuseNew(v bool) { p.refuseNew.Store(v) }

// ClearFaults restores transparent relaying for existing and new
// connections.
func (p *Proxy) ClearFaults() {
	p.SetLatency(0, 0)
	p.SetChunk(0)
	p.SetStall(0, 0)
	p.SetRefuseNew(false)
}

// DropActive hard-closes every active session, simulating a network
// partition that resets established connections.
func (p *Proxy) DropActive() {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.conns) / 2 // two legs per session
	for c := range p.conns {
		c.Close()
	}
	p.DroppedConns.Add(int64(n))
}

// Close stops accepting, drops every session, and waits for the pumps.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.refuseNew.Load() {
			down.Close()
			continue
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			down.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			down.Close()
			up.Close()
			return
		}
		p.conns[down] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(down, up)
		go p.pump(up, down)
	}
}

func (p *Proxy) forget(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// pump relays src → dst one chunk at a time, applying the live fault knobs
// between read and write. Each direction has its own pump, so a stall on
// results does not stop requests (mirroring real asymmetric congestion).
func (p *Proxy) pump(src, dst net.Conn) {
	defer p.wg.Done()
	defer func() {
		src.Close()
		dst.Close()
		p.forget(src)
		p.forget(dst)
	}()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	buf := make([]byte, 16<<10)
	chunks := int64(0)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunks++
			if d := p.latencyNS.Load(); d > 0 {
				if j := p.jitterNS.Load(); j > 0 {
					d += rng.Int63n(j)
				}
				time.Sleep(time.Duration(d))
			}
			if every := p.stallEvery.Load(); every > 0 && chunks%every == 0 {
				if d := p.stallNS.Load(); d > 0 {
					time.Sleep(time.Duration(d))
				}
			}
			if werr := p.writeChunked(dst, buf[:n], rng); werr != nil {
				return
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return
			}
			// Half-close: let in-flight bytes in the other direction
			// finish; closing both legs here is fine for test traffic.
			return
		}
	}
}

// writeChunked forwards b, split into at most chunkBytes-sized writes with
// a scheduling yield between them so the receiver observes genuine partial
// frames.
func (p *Proxy) writeChunked(dst net.Conn, b []byte, rng *rand.Rand) error {
	max := int(p.chunkBytes.Load())
	if max <= 0 || max >= len(b) {
		return p.forward(dst, b)
	}
	for len(b) > 0 {
		n := 1 + rng.Intn(max)
		if n > len(b) {
			n = len(b)
		}
		if err := p.forward(dst, b[:n]); err != nil {
			return err
		}
		b = b[n:]
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// forward writes one piece to dst, counting it in ForwardedBytes before
// the write: once the peer can read the bytes (and answer them) they are
// already counted. A failed write takes back what it did not deliver.
func (p *Proxy) forward(dst net.Conn, b []byte) error {
	p.ForwardedBytes.Add(int64(len(b)))
	n, err := dst.Write(b)
	if err != nil {
		p.ForwardedBytes.Add(-int64(len(b) - n))
	}
	return err
}
