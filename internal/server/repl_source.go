// Primary side of WAL replication: a listener accepting standby links,
// one source goroutine per link streaming the log, and the fence
// watchdog that revokes this node's own right to serve when no standby
// ack arrives inside the lease budget.
//
// Catch-up and tailing are the same loop: the feed serves old slots from
// the segment files and recent ones from the feed ring, and the source
// blocks on the feed when it reaches the end of the log. Heartbeats ride
// a separate goroutine (sharing the connection writer under a mutex) so
// the lease keeps renewing while the stream loop waits for appends.
package server

import (
	"net"
	"sync"
	"time"

	"oij/internal/repl"
	"oij/internal/trace"
	"oij/internal/wire"
)

// replHandshakeTimeout bounds a connecting standby's hello and the
// handshake writes, so a wedged peer cannot pin a source goroutine.
const replHandshakeTimeout = 10 * time.Second

// replStreamBatch is how many frames one feed read round trip ships.
const replStreamBatch = 256

// startSource binds the replication listener and launches the acceptor
// and the fence watchdog. Runs at Serve time on a
// boot primary and again on the ingest goroutine at promotion.
func (r *replState) startSource() error {
	ln, err := net.Listen("tcp", r.listenAddr)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.ln = ln
	r.mu.Unlock()
	r.wg.Add(1)
	go r.acceptSources(ln)
	r.wg.Add(1)
	go r.fenceWatchdog()
	return nil
}

func (r *replState) acceptSources(ln net.Listener) {
	defer r.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		r.mu.Lock()
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go r.serveSource(conn)
	}
}

// fenceWatchdog self-fences the primary when FenceAfter (3D/4) passes
// without any standby ack — strictly before the standby's promotion
// deadline D, so under a symmetric partition this node stops acking
// writes before the standby starts serving. Armed by the first standby
// attach: a primary that never had a standby has nobody to defer to.
func (r *replState) fenceWatchdog() {
	defer r.wg.Done()
	every := r.lease / 8
	if every < time.Millisecond {
		every = time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		if r.roleNow() != repl.RolePrimary || !r.armed.Load() {
			continue
		}
		if time.Since(time.Unix(0, r.lastAck.Load())) >= repl.FenceAfter(r.lease) {
			r.fence(r.epoch.Load())
		}
	}
}

// serveSource speaks one standby link: handshake, then stream the log
// from the agreed slot while a reader goroutine consumes acks and a
// heartbeat goroutine renews the standby's lease.
func (r *replState) serveSource(conn net.Conn) {
	defer r.wg.Done()
	defer func() {
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
		conn.Close()
	}()
	s := r.s
	rd, wr := repl.NewReader(conn), repl.NewWriter(conn)
	var wmu sync.Mutex
	send := func(m repl.Message) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := wr.Write(m); err != nil {
			return err
		}
		return wr.Flush()
	}

	conn.SetDeadline(time.Now().Add(replHandshakeTimeout))
	m, err := rd.Read()
	if err != nil || m.Kind != repl.TagHello {
		return
	}
	h := m.Hello
	if h.Epoch > r.epoch.Load() {
		// The connecting peer has applied a higher epoch than this node
		// ever stamped: a promotion happened that this node did not
		// observe, so it is the zombie here.
		r.fence(h.Epoch)
		send(repl.Message{Kind: repl.TagFence, Epoch: h.Epoch})
		return
	}
	if r.roleNow() != repl.RolePrimary {
		send(repl.Message{Kind: repl.TagFence, Epoch: r.epoch.Load()})
		return
	}
	feed := s.wal.Feed()
	next := h.Applied
	oldest, commit := feed.Oldest(), feed.Commit()
	if h.WALID != r.selfID.Load() || next < oldest || next > commit {
		// The standby's position means nothing against this log (different
		// identity, rotated past, or ahead of the end): reset it to the
		// oldest readable slot. Only an empty standby accepts.
		if send(repl.Message{Kind: repl.TagReset, Oldest: oldest}) != nil {
			return
		}
		next = oldest
	}
	if send(repl.Message{Kind: repl.TagWelcome, Welcome: repl.Welcome{
		Epoch:  r.epoch.Load(),
		WALID:  r.selfID.Load(),
		Commit: commit,
	}}) != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	r.lastAck.Store(time.Now().UnixNano()) // an attach counts as liveness
	r.armed.Store(true)
	r.standbys.Add(1)
	defer r.standbys.Add(-1)
	s.flight.Record(trace.CompRepl, trace.EvReplConnect, next, commit)

	// Ack reader: acks renew the lease and advance the acked watermark; a
	// fence from the standby (it promoted) fences this node immediately.
	go func() {
		for {
			m, err := rd.Read()
			if err != nil {
				conn.Close()
				return
			}
			switch m.Kind {
			case repl.TagAck:
				for {
					cur := r.acked.Load()
					if m.Applied <= cur || r.acked.CompareAndSwap(cur, m.Applied) {
						break
					}
				}
				r.lastAck.Store(time.Now().UnixNano())
			case repl.TagFence:
				if m.Epoch > r.epoch.Load() {
					r.fence(m.Epoch)
				}
				conn.Close()
				return
			default:
				conn.Close()
				return
			}
		}
	}()

	// Heartbeats carry the epoch and the live end-of-log; when this node
	// loses primaryship the same ticker converts into an explicit fence so
	// the standby promotes without waiting out the full lease.
	hbEvery := repl.HeartbeatEvery(r.lease)
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-r.stop:
				return
			case <-t.C:
			}
			if r.roleNow() != repl.RolePrimary {
				send(repl.Message{Kind: repl.TagFence, Epoch: r.epoch.Load()})
				conn.Close()
				return
			}
			c := feed.Commit()
			r.checkLag(c)
			if send(repl.Message{Kind: repl.TagHeartbeat, Epoch: r.epoch.Load(), Commit: c}) != nil {
				conn.Close()
				return
			}
		}
	}()

	caught := false
	var data repl.Message
	data.Kind = repl.TagData
	for {
		b, err := feed.Read(next, replStreamBatch)
		if err != nil {
			// Rotated past the standby's position mid-stream, or the feed
			// was poisoned (the WAL dropped published frames): the stream
			// can no longer be byte-faithful, so drop the link and let the
			// standby re-handshake (which resets or reports, loudly).
			r.setErr("stream: " + err.Error())
			return
		}
		if len(b) == 0 {
			if !caught && next >= feed.Commit() {
				caught = true
				s.flight.Record(trace.CompRepl, trace.EvReplCaughtUp, next, next)
			}
			if !feed.Wait(next) {
				return
			}
			continue
		}
		n := len(b) / wire.WALFrameBytes
		wmu.Lock()
		var werr error
		for i := 0; i < n; i++ {
			data.Seq = next + uint64(i)
			copy(data.Frame[:], b[i*wire.WALFrameBytes:])
			if werr = wr.Write(data); werr != nil {
				break
			}
		}
		if werr == nil {
			werr = wr.Flush()
		}
		wmu.Unlock()
		if werr != nil {
			return
		}
		next += uint64(n)
	}
}
