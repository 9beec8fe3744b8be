// Standby side of WAL replication: a connector that dials the primary
// with backoff, the per-connection link loop (handshake, apply, ack), and
// the promote watchdog that turns a lease expiry into a failover.
//
// Applied frames are marshalled through the server's ingest funnel
// (ingestReq.replFrame), so the single-ingester rule holds on a standby
// exactly as on a primary — the link goroutine never touches the engine
// or the WAL directly. Promotion rides the same funnel after the link has
// fully stopped, which is the ordering proof: every frame received before
// the trigger is applied before the node serves its first request.
package server

import (
	"fmt"
	"net"
	"time"

	"oij/internal/repl"
	"oij/internal/trace"
	"oij/internal/wire"
)

// replDialTimeout bounds one connection attempt to the primary.
const replDialTimeout = 2 * time.Second

// replAckEvery is the data-frame cadence of progress acks (heartbeats
// always draw one, so an idle stream still renews the primary's view).
const replAckEvery = 256

// runLink dials the primary until stopped or promoted, running one link
// per established connection. After the loop — and only after, so no
// frame can trail it through the funnel — a triggered promotion is
// enqueued to the ingest goroutine.
func (r *replState) runLink() {
	defer r.wg.Done()
	backoff := Backoff{Base: 50 * time.Millisecond, Max: time.Second}
	attempt := 0
	for !r.promoted.Load() {
		select {
		case <-r.stop:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", r.primaryAddr, replDialTimeout)
		if err != nil {
			r.setErr("dial primary: " + err.Error())
			if !r.sleep(backoff.Next(attempt)) {
				return
			}
			attempt++
			continue
		}
		attempt = 0
		r.mu.Lock()
		r.linkConn = conn
		r.mu.Unlock()
		r.linkOnce(conn)
		r.mu.Lock()
		r.linkConn = nil
		r.mu.Unlock()
		conn.Close()
		if r.promoted.Load() {
			break
		}
		if !r.sleep(50 * time.Millisecond) {
			return
		}
	}
	if r.promoted.Load() {
		r.s.funnel.PutAll([]ingestReq{{promote: true}}, r.stop)
	}
}

// promoteWatchdog promotes when the lease expires: nothing heard from the
// primary — frame or heartbeat — for a full lease D. Gated on everSynced:
// a standby that never completed a handshake this process has no basis to
// believe it holds the newest history.
func (r *replState) promoteWatchdog() {
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
		if r.roleNow() != repl.RoleStandby || !r.everSynced.Load() {
			continue
		}
		if time.Since(time.Unix(0, r.lastHeard.Load())) >= r.lease {
			r.triggerPromote()
		}
	}
}

// linkOnce speaks one connection to the primary: hello/welcome handshake
// (with reset handling for a fresh standby), then the apply loop. Any
// protocol surprise drops the connection; the connector retries.
func (r *replState) linkOnce(conn net.Conn) {
	s := r.s
	rd, wr := repl.NewReader(conn), repl.NewWriter(conn)
	applied := r.appliedSlot()
	hello := repl.Message{Kind: repl.TagHello, Hello: repl.Hello{
		Version: repl.ProtocolVersion,
		Epoch:   r.epoch.Load(),
		WALID:   r.upstreamID.Load(),
		Applied: applied,
	}}
	if wr.Write(hello) != nil || wr.Flush() != nil {
		return
	}
	conn.SetReadDeadline(time.Now().Add(replHandshakeTimeout))
	m, err := rd.Read()
	if err != nil {
		r.setErr("handshake: " + err.Error())
		return
	}
	if m.Kind == repl.TagReset {
		// The primary cannot serve our position. Re-applying from its
		// oldest slot would double-count everything we already hold, so
		// only an empty standby accepts; anything else is an operator
		// problem (wipe the standby WAL to rejoin cold).
		if local, _ := s.wal.Slots(); local != 0 {
			r.setErr(fmt.Sprintf(
				"primary reset to slot %d but this standby holds %d local slots; wipe the standby WAL and replstate to rejoin",
				m.Oldest, local))
			return
		}
		r.replBase.Store(m.Oldest)
		r.upstreamID.Store(0) // adopt the primary's identity from the welcome
		applied = m.Oldest
		if m, err = rd.Read(); err != nil {
			r.setErr("handshake: " + err.Error())
			return
		}
	}
	if m.Kind == repl.TagFence {
		// The primary has stopped serving and tells us to take over now
		// rather than wait out the lease.
		r.triggerPromote()
		return
	}
	if m.Kind != repl.TagWelcome {
		r.setErr(fmt.Sprintf("handshake: unexpected message tag 0x%02x", m.Kind))
		return
	}
	w := m.Welcome
	if w.Epoch < r.epoch.Load() {
		// Our durably applied epoch is ahead of this primary's: it is a
		// zombie from before a promotion. Fence it and refuse to follow —
		// applying its frames would fork the promoted history.
		wr.Write(repl.Message{Kind: repl.TagFence, Epoch: r.epoch.Load()})
		wr.Flush()
		r.setErr(fmt.Sprintf("refused primary at stale epoch %d (ours %d)", w.Epoch, r.epoch.Load()))
		return
	}
	if id := r.upstreamID.Load(); id == 0 {
		r.upstreamID.Store(w.WALID)
		if err := s.wal.SaveReplState(w.WALID, r.replBase.Load()); err != nil {
			r.setErr("persist replstate: " + err.Error())
			return
		}
	} else if id != w.WALID {
		r.setErr("primary WAL identity changed (primary restarted?); wipe the standby WAL and replstate to rejoin")
		return
	}
	r.commit.Store(w.Commit)
	r.lastHeard.Store(time.Now().UnixNano())
	r.everSynced.Store(true)
	if applied >= w.Commit {
		r.noteCaughtUp(applied)
	} else {
		r.caughtUp.Store(false)
	}
	s.flight.Record(trace.CompRepl, trace.EvReplConnect, applied, w.Commit)

	sendAck := func() bool {
		if wr.Write(repl.Message{Kind: repl.TagAck, Applied: r.appliedSlot()}) != nil {
			return false
		}
		return wr.Flush() == nil
	}
	next := applied
	ackedAt := applied
	for {
		// The read deadline doubles as the liveness probe: a silent
		// primary surfaces as a timeout here and the promote watchdog
		// takes it from there.
		conn.SetReadDeadline(time.Now().Add(r.lease))
		m, err := rd.Read()
		if err != nil {
			r.setErr("link: " + err.Error())
			return
		}
		switch m.Kind {
		case repl.TagData:
			if m.Seq != next {
				r.setErr(fmt.Sprintf("link: frame at slot %d, want %d; re-handshaking", m.Seq, next))
				return
			}
			frame := make([]byte, wire.WALFrameBytes)
			copy(frame, m.Frame[:])
			if s.funnel.PutAll([]ingestReq{{replFrame: frame}}, r.stop) == 0 {
				return
			}
			next++
			r.lastHeard.Store(time.Now().UnixNano())
			if next >= r.commit.Load() {
				r.noteCaughtUp(next)
			}
			if next-ackedAt >= replAckEvery {
				ackedAt = next
				if !sendAck() {
					return
				}
			}
		case repl.TagHeartbeat:
			if m.Epoch < r.epoch.Load() {
				wr.Write(repl.Message{Kind: repl.TagFence, Epoch: r.epoch.Load()})
				wr.Flush()
				r.setErr(fmt.Sprintf("refused heartbeat at stale epoch %d (ours %d)", m.Epoch, r.epoch.Load()))
				return
			}
			r.commit.Store(m.Commit)
			r.lastHeard.Store(time.Now().UnixNano())
			if next >= m.Commit {
				r.noteCaughtUp(next)
			}
			if !sendAck() {
				return
			}
		case repl.TagFence:
			r.triggerPromote()
			return
		default:
			r.setErr(fmt.Sprintf("link: unexpected message tag 0x%02x", m.Kind))
			return
		}
	}
}

// noteCaughtUp records the first catch-up transition of a sync.
func (r *replState) noteCaughtUp(applied uint64) {
	if !r.caughtUp.Swap(true) {
		r.s.flight.Record(trace.CompRepl, trace.EvReplCaughtUp, applied, r.commit.Load())
	}
}
