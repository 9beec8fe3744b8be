// Replication runtime state: the role/epoch machine shared by the
// primary-side source (repl_source.go) and the standby-side link
// (repl_standby.go), plus the /statusz replication block.
//
// Positions are *slots* in the primary's log (see internal/wal): the
// standby's replay offset is replBase (the primary slot its local slot 0
// corresponds to) plus its own durable slot count, so an ack is exactly
// "this prefix of your log survives a crash on my disk". The fencing
// epoch travels inside the WAL itself (epoch frames); this file only
// caches the highest epoch either side has durably observed. The
// standby's durable position lives in the WAL's replstate file.
package server

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"oij/internal/repl"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/wire"
)

// replState is the replication half of a Server. It exists only when the
// server was configured with ReplListenAddr or StandbyOf; a nil *replState
// means replication is off and costs the hot path one pointer check.
type replState struct {
	s *Server

	lease       time.Duration // failure-detection budget D (0: no auto-failover)
	maxLagBytes int64         // lag alarm threshold (0: disabled)
	listenAddr  string
	primaryAddr string

	role  atomic.Int32 // repl.Role
	epoch atomic.Uint64

	// selfID identifies this process's log to downstream standbys (slot
	// numbering restarts with the process, so the id does too); upstreamID
	// is the primary log this standby follows, persisted in the replstate
	// file so a restarted standby can prove its offsets still apply.
	selfID     atomic.Uint64
	upstreamID atomic.Uint64

	// Standby position, in the primary's slot space.
	replBase   atomic.Uint64 // primary slot of this standby's local slot 0
	commit     atomic.Uint64 // primary's announced end of log
	caughtUp   atomic.Bool
	everSynced atomic.Bool  // completed a handshake at least once this process
	lastHeard  atomic.Int64 // UnixNano of last primary traffic
	promoted   atomic.Bool  // promotion triggered (the link loop enqueues it)

	// Primary-side liveness and progress.
	acked    atomic.Uint64 // highest slot any standby has durably acked
	lastAck  atomic.Int64  // UnixNano of the last ack (or attach)
	armed    atomic.Bool   // a standby attached at least once: fencing live
	standbys atomic.Int64
	lagging  atomic.Bool

	lastErr atomic.Value // string: last replication error, for operators

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	linkConn net.Conn

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newReplState(s *Server, cfg Config) *replState {
	r := &replState{
		s:           s,
		lease:       cfg.ReplLease,
		maxLagBytes: cfg.MaxReplLag,
		listenAddr:  cfg.ReplListenAddr,
		primaryAddr: cfg.StandbyOf,
		conns:       map[net.Conn]struct{}{},
		stop:        make(chan struct{}),
	}
	if r.lease < 0 {
		r.lease = 0 // negative disables automatic failover and fencing
	}
	if cfg.StandbyOf != "" {
		r.role.Store(int32(repl.RoleStandby))
	} else {
		r.role.Store(int32(repl.RolePrimary))
	}
	r.lastErr.Store("")
	return r
}

// roleNow returns the live role.
func (r *replState) roleNow() repl.Role { return repl.Role(r.role.Load()) }

// setErr records the most recent replication error for /statusz.
func (r *replState) setErr(msg string) { r.lastErr.Store(msg) }

// appliedSlot is the standby's durable position in the primary's slot
// space: the primary slot its local log started at, plus every local slot
// known flushed (and fsynced, per the WAL sync mode) to its own disk.
func (r *replState) appliedSlot() uint64 {
	if r.s.wal == nil {
		return 0
	}
	_, durable := r.s.wal.Slots()
	return r.replBase.Load() + durable
}

// start launches the configured replication goroutines. Called from
// Serve, after the WAL and engine exist.
func (r *replState) start() error {
	if r.primaryAddr != "" {
		r.wg.Add(1)
		go r.runLink()
		if r.lease > 0 {
			r.wg.Add(1)
			go r.promoteWatchdog()
		}
	}
	if r.listenAddr != "" && r.roleNow() == repl.RolePrimary {
		if err := r.startSource(); err != nil {
			return err
		}
	}
	return nil
}

// stopAll tears replication down: every goroutine is unblocked (listener,
// connections, and the WAL feed are closed) and waited for. It must run
// after the session readers are gone and before the ingest funnel closes,
// because the standby link and promotion both enqueue into the funnel.
func (r *replState) stopAll() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.mu.Lock()
	if r.ln != nil {
		r.ln.Close()
	}
	for c := range r.conns {
		c.Close()
	}
	if r.linkConn != nil {
		r.linkConn.Close()
	}
	r.mu.Unlock()
	if f := r.s.wal.Feed(); f != nil {
		f.Close()
	}
	r.wg.Wait()
}

// sleep waits d or until stop; false means stop.
func (r *replState) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-r.stop:
		return false
	case <-t.C:
		return true
	}
}

// fence transitions primary → fenced: this node saw proof (a higher epoch,
// or FenceAfter without any standby ack) that a standby has promoted or is
// presumed promoting, so it stops acking writes — the promoted side's log
// must stay the single history. Terminal for the process.
func (r *replState) fence(sawEpoch uint64) {
	if !r.role.CompareAndSwap(int32(repl.RolePrimary), int32(repl.RoleFenced)) {
		return
	}
	own := r.epoch.Load()
	r.setErr(fmt.Sprintf("fenced: lost the lease at epoch %d (observed epoch %d); restart as a standby of the promoted node", own, sawEpoch))
	r.s.flight.Record(trace.CompRepl, trace.EvReplFenced, sawEpoch, own)
	r.s.incident("repl-fenced")
}

// triggerPromote arms promotion: the standby link is severed and the link
// loop, once fully stopped, enqueues the promotion through the ingest
// funnel — ordering through the funnel guarantees every replicated frame
// received before the trigger is applied before the node starts serving.
func (r *replState) triggerPromote() {
	if r.lease <= 0 || !r.everSynced.Load() || r.roleNow() != repl.RoleStandby {
		return
	}
	if r.promoted.CompareAndSwap(false, true) {
		r.mu.Lock()
		if r.linkConn != nil {
			r.linkConn.Close()
		}
		r.mu.Unlock()
	}
}

// applyPromote runs on the ingest goroutine (funnel-ordered after every
// applied frame): stamp the new fencing epoch durably, re-enable rotation,
// flip to primary, and start serving downstream standbys if configured.
func (s *Server) applyPromote() {
	r := s.repl
	if r == nil || !r.role.CompareAndSwap(int32(repl.RoleStandby), int32(repl.RolePrimary)) {
		return
	}
	newEpoch := r.epoch.Load() + 1
	if s.wal != nil {
		if err := s.wal.Promote(newEpoch); err != nil {
			s.walErrs.Add(1)
			s.flight.Record(trace.CompWAL, trace.EvWALError, uint64(s.walErrs.Load()), 0)
		}
	}
	r.epoch.Store(newEpoch)
	s.flight.Record(trace.CompRepl, trace.EvReplPromote, newEpoch, r.appliedSlot())
	s.incident("repl-promote")
	if r.listenAddr != "" {
		if err := r.startSource(); err != nil {
			r.setErr("promote: replication listener: " + err.Error())
		}
	}
}

// replRefusal reports whether this node currently refuses client writes,
// and with which NACK code: standbys answer not-primary (clients fail over
// to the next address), fenced ex-primaries answer fenced.
func (s *Server) replRefusal() (byte, bool) {
	r := s.repl
	if r == nil {
		return 0, false
	}
	switch repl.Role(r.role.Load()) {
	case repl.RoleStandby:
		return wire.NackNotPrimary, true
	case repl.RoleFenced:
		return wire.NackFenced, true
	}
	return 0, false
}

// applyReplFrame applies one replicated WAL frame on the ingest goroutine:
// append it verbatim (the standby's log must mirror the primary's, corrupt
// frames included), then replay it into the engine exactly as recovery
// would — epoch frames advance the cached epoch, checksum-failed frames
// are logged but not replayed.
func (s *Server) applyReplFrame(frame []byte) {
	if err := s.wal.AppendRaw(frame); err != nil {
		s.walErrs.Add(1)
		s.flight.Record(trace.CompWAL, trace.EvWALError, uint64(s.walErrs.Load()), 0)
	}
	if e, err := wire.DecodeWALEpochFrame(frame); err == nil {
		if r := s.repl; r != nil && e > r.epoch.Load() {
			r.epoch.Store(e)
		}
		return
	}
	t, err := wire.DecodeWALFrame(frame)
	if err != nil || t.Base {
		return
	}
	s.probesIngested.Add(1)
	s.eng.Ingest(tuple.Tuple{TS: t.TS, Key: t.Key, Val: t.Val, Side: tuple.Probe})
}

// checkLag latches the lag alarm: once the un-acked suffix of the log
// exceeds MaxReplLag bytes the transition is recorded (with an incident
// dump); recovery below the threshold re-arms it.
func (r *replState) checkLag(commit uint64) {
	if r.maxLagBytes <= 0 || !r.armed.Load() {
		return
	}
	acked := r.acked.Load()
	var lag int64
	if commit > acked {
		lag = int64(commit-acked) * wire.WALFrameBytes
	}
	if lag > r.maxLagBytes {
		if !r.lagging.Swap(true) {
			r.s.flight.Record(trace.CompRepl, trace.EvReplLagExceeded, uint64(lag), uint64(r.maxLagBytes))
			r.s.incident("repl-lag")
		}
	} else {
		r.lagging.Store(false)
	}
}

// lag returns the live (bytes, ms) lag pair for the current role.
func (r *replState) lag() (int64, float64) {
	var bytes int64
	var since time.Duration
	switch r.roleNow() {
	case repl.RoleStandby, repl.RoleFenced:
		if r.everSynced.Load() {
			if c, a := r.commit.Load(), r.appliedSlot(); c > a {
				bytes = int64(c-a) * wire.WALFrameBytes
			}
			since = time.Since(time.Unix(0, r.lastHeard.Load()))
		}
	default:
		if r.armed.Load() {
			if f := r.s.wal.Feed(); f != nil {
				if c, a := f.Commit(), r.acked.Load(); c > a {
					bytes = int64(c-a) * wire.WALFrameBytes
				}
			}
			since = time.Since(time.Unix(0, r.lastAck.Load()))
		}
	}
	return bytes, float64(since) / float64(time.Millisecond)
}

// ReplStatus is the replication block on /statusz.
type ReplStatus struct {
	Role         string  `json:"role"`
	Epoch        uint64  `json:"epoch"`
	LogEndSlot   uint64  `json:"log_end_slot"`
	DurableSlot  uint64  `json:"durable_slot"`
	ReplayOffset uint64  `json:"replay_offset"`
	LagBytes     int64   `json:"lag_bytes"`
	LagMs        float64 `json:"lag_ms"`
	CaughtUp     bool    `json:"caught_up"`
	Standbys     int64   `json:"standbys"`
	ListenAddr   string  `json:"listen_addr,omitempty"`
	PrimaryAddr  string  `json:"primary_addr,omitempty"`
	Refused      int64   `json:"refused"`
	LastError    string  `json:"last_error,omitempty"`
}

// replStatus snapshots the replication block (nil when replication is
// off, so the JSON field is omitted entirely on plain nodes).
func (s *Server) replStatus() *ReplStatus {
	r := s.repl
	if r == nil {
		return nil
	}
	lagB, lagMs := r.lag()
	st := &ReplStatus{
		Role:        r.roleNow().String(),
		Epoch:       r.epoch.Load(),
		LagBytes:    lagB,
		LagMs:       lagMs,
		CaughtUp:    r.caughtUp.Load(),
		Standbys:    r.standbys.Load(),
		PrimaryAddr: r.primaryAddr,
	}
	if s.wal != nil {
		appended, durable := s.wal.Slots()
		st.LogEndSlot, st.DurableSlot = appended, durable
	}
	switch r.roleNow() {
	case repl.RoleStandby, repl.RoleFenced:
		st.ReplayOffset = r.appliedSlot()
	default:
		st.ReplayOffset = r.acked.Load()
	}
	if o := s.o; o != nil && o.replRefused != nil {
		st.Refused = o.replRefused.Load()
	}
	r.mu.Lock()
	if r.ln != nil {
		st.ListenAddr = r.ln.Addr().String()
	} else {
		st.ListenAddr = r.listenAddr
	}
	r.mu.Unlock()
	if msg, _ := r.lastErr.Load().(string); msg != "" {
		st.LastError = msg
	}
	return st
}

// ReplAddr returns the bound replication listener address (nil until the
// source is listening — on a standby, that is after promotion).
func (s *Server) ReplAddr() net.Addr {
	if s.repl == nil {
		return nil
	}
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	if s.repl.ln == nil {
		return nil
	}
	return s.repl.ln.Addr()
}

// ReplRole returns the live replication role (RoleNone when replication
// is not configured).
func (s *Server) ReplRole() repl.Role {
	if s.repl == nil {
		return repl.RoleNone
	}
	return s.repl.roleNow()
}
