package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"oij/internal/agg"
	"oij/internal/refjoin"
	"oij/internal/server"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/wire"
)

// epoch anchors mono, the benchmark's clock; wallEpoch is the wall-clock
// time at the same instant, for placing bench and daemon spans on one
// trace timeline.
var (
	epoch     = time.Now()
	wallEpoch = epoch.UnixNano()
)

func mono() int64 { return int64(time.Since(epoch)) }

const (
	sampleEvery = 64 // answers checked against the oracles, and daemon trace sampling
	flushEvery  = 128
	// minRound is the shortest time between two paced sender rounds. With
	// rounds as fast as the sender could go, the daemon saw a burst pattern
	// that depended on the sender's own speed, and latency and CPU per
	// tuple varied severalfold between runs; a round per millisecond gives
	// every run the same pattern. The first tuple of a round is up to a
	// round late, which latency (timed from the schedule) includes.
	minRound = time.Millisecond
	// satChunks splits the saturate phase; ingest_tps is the median chunk
	// rate, so one stall (a GC cycle, a neighbour's burst) moves it less.
	satChunks      = 6
	barrierTimeout = 60 * time.Second
	latencyWindow  = time.Second
)

// plan is the stream layout of one run: consecutive ranges of global
// stream indexes, one per phase.
type plan struct {
	prefill, settle, paced, sat int
}

func (p plan) settleStart() int { return p.prefill }
func (p plan) pacedStart() int  { return p.prefill + p.settle }
func (p plan) satStart() int    { return p.prefill + p.settle + p.paced }
func (p plan) total() int       { return p.prefill + p.settle + p.paced + p.sat }

func makePlan(o options, w workloadDef, s *stream) plan {
	return plan{
		prefill: max(o.prefillMin, int(float64(s.retentionTuples())*o.prefillRet)),
		settle:  int(w.rate * o.settle.Seconds()),
		paced:   int(w.rate * o.seconds),
		sat:     o.satTuples,
	}
}

// answer is one checked result frame.
type answer struct {
	matches int64
	agg     float64
}

// failCounts tallies failed operations by cause.
type failCounts struct {
	nack, errFrame, duplicate, mismatch, missing, oracle int64
}

func (f failCounts) total() int64 {
	return f.nack + f.errFrame + f.duplicate + f.mismatch + f.missing + f.oracle
}

func (f failCounts) String() string {
	return fmt.Sprintf("nack=%d error=%d duplicate=%d mismatch=%d missing=%d oracle=%d",
		f.nack, f.errFrame, f.duplicate, f.mismatch, f.missing, f.oracle)
}

// session is the request bookkeeping of one run, shared by the sender
// (main goroutine) and the reader of the current connection. Everything is
// indexed by wire request id and preallocated; the reader writes only
// slots of requests the sender already sent, and the main goroutine reads
// them only after a barrier ack, so the channel carrying the ack orders
// every access.
type session struct {
	s      *stream
	p      plan
	nsPer  float64 // ns between consecutive paced tuples
	reqG   []int32 // request id -> global stream index
	got    []uint8 // answers received per request
	nextID int     // next request id to send

	pacedLo, pacedHi int     // ids of the measured paced requests
	pacedStartNS     int64   // mono time the settle+paced schedule started
	recvNS           []int64 // paced request -> result arrival (mono)
	lateNS           []int64 // paced request -> flush time minus due time
	answers          []answer

	// Traced runs: the daemon samples the 1st, 65th, ... request it
	// admits, so the sender times the encode of the same requests.
	traced        bool
	daemonFirstID int
	encode        map[int][2]int64 // request id -> encode start, end (mono)

	fails failCounts
}

func newSession(s *stream, p plan, rate float64, traced bool) *session {
	ss := &session{s: s, p: p, nsPer: 1e9 / rate, traced: traced}
	for g := 0; g < p.total(); g++ {
		if s.at(g).base {
			ss.reqG = append(ss.reqG, int32(g))
		}
	}
	firstID := func(g int) int {
		return sort.Search(len(ss.reqG), func(i int) bool { return int(ss.reqG[i]) >= g })
	}
	ss.pacedLo, ss.pacedHi = firstID(p.pacedStart()), firstID(p.satStart())
	ss.got = make([]uint8, len(ss.reqG))
	ss.recvNS = make([]int64, ss.pacedHi-ss.pacedLo)
	ss.lateNS = make([]int64, ss.pacedHi-ss.pacedLo)
	ss.answers = make([]answer, len(ss.reqG)/sampleEvery+1)
	if traced {
		ss.encode = map[int][2]int64{}
	}
	return ss
}

// dueNS is request id's scheduled send time relative to the start of the
// settle+paced schedule.
func (ss *session) dueNS(id int) int64 {
	return int64(float64(int(ss.reqG[id])-ss.p.settleStart()) * ss.nsPer)
}

// onResult checks one result frame as it arrives (reader goroutine).
func (ss *session) onResult(r wire.Result, now int64) {
	if r.Seq >= uint64(len(ss.reqG)) {
		ss.fails.mismatch++
		return
	}
	id := int(r.Seq)
	if ss.got[id] != 0 {
		ss.fails.duplicate++
		return
	}
	ss.got[id] = 1
	t := ss.s.at(int(ss.reqG[id]))
	if r.Key != t.key || r.TS != t.ts {
		ss.fails.mismatch++
	}
	if id >= ss.pacedLo && id < ss.pacedHi {
		ss.recvNS[id-ss.pacedLo] = now
	}
	if id%sampleEvery == 0 {
		ss.answers[id/sampleEvery] = answer{matches: r.Matches, agg: r.Agg}
	}
}

// link is one client connection to the daemon: the sender writes on the
// main goroutine, a reader goroutine checks every frame coming back.
type link struct {
	conn *countConn
	w    *wire.Writer
	acks chan struct{}
	done chan struct{}
	rerr error // valid once done is closed
}

// countConn counts socket bytes in each direction; each counter has a
// single writer (sender or reader) and is read after both have stopped.
type countConn struct {
	net.Conn
	in, out int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in += int64(n)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out += int64(n)
	return n, err
}

func dialLink(addr string, ss *session) (*link, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	cc := &countConn{Conn: conn}
	// One pending barrier at a time, so one slot never blocks the reader.
	l := &link{conn: cc, w: wire.NewWriter(cc), acks: make(chan struct{}, 1), done: make(chan struct{})}
	go l.readLoop(ss)
	return l, nil
}

func (l *link) readLoop(ss *session) {
	defer close(l.done)
	r := wire.NewReader(l.conn)
	for {
		m, err := r.Read()
		if err != nil {
			l.rerr = err
			return
		}
		switch m.Kind {
		case wire.TagResult:
			ss.onResult(m.Result, mono())
		case wire.TagNack:
			ss.fails.nack++
			if m.Nack.Seq < uint64(len(ss.got)) {
				ss.got[m.Nack.Seq] = 1
			}
		case wire.TagFlush:
			l.acks <- struct{}{}
		default:
			ss.fails.errFrame++
		}
	}
}

// barrier sends a flush frame and waits until the daemon has answered
// every request sent before it.
func (l *link) barrier() error {
	if err := l.w.WriteFlush(); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	select {
	case <-l.acks:
		return nil
	case <-l.done:
		return fmt.Errorf("connection closed before the barrier ack: %v", l.rerr)
	case <-time.After(barrierTimeout):
		return errors.New("barrier ack timed out")
	}
}

// close closes the connection and waits for the reader.
func (l *link) close() {
	l.conn.Close()
	<-l.done
}

// send writes stream tuple g; base tuples become requests with the next id.
func (l *link) send(ss *session, g int) error {
	r := ss.s.at(g)
	if !r.base {
		return l.w.WriteTuple(wire.Tuple{TS: r.ts, Key: r.key, Val: r.val})
	}
	id := ss.nextID
	ss.nextID++
	t := wire.Tuple{Base: true, TS: r.ts, Key: r.key, Val: r.val, ID: uint64(id)}
	if ss.traced && (id-ss.daemonFirstID)%sampleEvery == 0 {
		t0 := mono()
		err := l.w.WriteBaseID(t)
		ss.encode[id] = [2]int64{t0, mono()}
		return err
	}
	return l.w.WriteBaseID(t)
}

// sendBulk sends [from, to) unpaced, flushing every flushEvery frames.
func (l *link) sendBulk(ss *session, from, to int) error {
	for g := from; g < to; g++ {
		if err := l.send(ss, g); err != nil {
			return err
		}
		if (g-from)%flushEvery == flushEvery-1 {
			if err := l.w.Flush(); err != nil {
				return err
			}
		}
	}
	return l.w.Flush()
}

// sendPaced runs the settle and paced phases as one open-loop schedule:
// tuple g is due at start + (g − settleStart)/rate. Each round sends every
// tuple already due, flushes, and sleeps until the next one is due but at
// least minRound, so a stalled daemon is charged for the requests queued
// behind the stall. atPaced runs once, when the first measured tuple is
// due.
func (l *link) sendPaced(ss *session, atPaced func()) error {
	from, to := ss.p.settleStart(), ss.p.satStart()
	ss.pacedStartNS = mono()
	g := from
	for g < to {
		due := min(from+int(float64(mono()-ss.pacedStartNS)/ss.nsPer)+1, to)
		firstID := ss.nextID
		for ; g < due; g++ {
			if g == ss.p.pacedStart() {
				atPaced()
			}
			if err := l.send(ss, g); err != nil {
				return err
			}
		}
		if err := l.w.Flush(); err != nil {
			return err
		}
		sent := mono() - ss.pacedStartNS
		for id := max(firstID, ss.pacedLo); id < min(ss.nextID, ss.pacedHi); id++ {
			ss.lateNS[id-ss.pacedLo] = sent - ss.dueNS(id)
		}
		if g < to {
			next := int64(float64(g-from) * ss.nsPer)
			// nanosleep keeps the round cadence regular; time.Sleep wakes
			// wherever the runtime next polls its timers.
			ts := syscall.NsecToTimespec(max(next-(mono()-ss.pacedStartNS), int64(minRound)))
			syscall.Nanosleep(&ts, nil)
		}
	}
	return nil
}

// e2eResult is what one end-to-end run measured.
type e2eResult struct {
	setupS      []float64
	satRates    []float64 // tuples/s per saturate chunk
	ingestTPS   float64
	p50US       float64 // median over latency windows of the window p50
	p99US       float64 // median over latency windows of the window p99
	samples     int
	windowP50   []float64 // per latency window, µs
	windowP99   []float64
	cpuUSPerTup float64
	rssMiB      float64 // VmHWM when the paced phase ended
	rssEndMiB   float64 // VmHWM at the end, after saturation

	genLateP50US   float64
	genLateP99US   float64
	genCPUUSPerTup float64
	bytesPerTuple  float64
	idleCores      float64 // daemon CPU per wall second while idle (measured only with idle > 0)
	allocObjs      float64 // per paced tuple, from /statusz stage_allocs
	allocBytes     float64
	gcPauseP99US   float64
	staleRatio     float64

	attempted int64
	fails     failCounts
	phases    []string // wall time per phase

	ss    *session
	spans []trace.SpanSnap // traced runs: /tracez after the paced phase
}

// snapshot is the daemon and generator state at a phase boundary.
type snapshot struct {
	daemonCPU float64
	benchCPU  float64
	status    server.Status
	err       error
}

func takeSnapshot(d *daemon) snapshot {
	var sn snapshot
	var err1, err2 error
	sn.daemonCPU, err1 = d.cpuSeconds()
	sn.benchCPU = selfCPUSeconds()
	sn.status, err2 = d.statusz()
	sn.err = errors.Join(err1, err2)
	return sn
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func sumAllocs(st server.Status) (objs, bytes int64) {
	for _, a := range st.StageAllocs {
		objs += a.Objects
		bytes += a.Bytes
	}
	return objs, bytes
}

// walSync is durable's -wal-sync mode. The WAL is written through the page
// cache on every heartbeat but not fsynced: fsync time is set by whoever
// else uses the disk, and with "interval" it made ingest_tps and setup_s
// vary by a third between runs (README.md, "Noise").
const walSync = "none"

// daemonArgs are the oijd flags for workload w.
func daemonArgs(w workloadDef, s *stream, walDir string, traced bool) []string {
	win := s.window()
	args := []string{
		"-parallel", "2", "-algorithm", "scale-oij", "-agg", "sum",
		"-pre", fmt.Sprintf("%dus", win.Pre), "-lateness", fmt.Sprintf("%dus", win.Lateness),
	}
	if w.wal {
		args = append(args, "-wal", filepath.Join(walDir, "wal"), "-wal-sync", walSync)
	}
	if traced {
		// The ring must hold every span sampled during settle and paced.
		args = append(args, "-trace-sample", fmt.Sprint(sampleEvery), "-trace-ring", "1048576")
	}
	return args
}

// runE2E drives one daemon lifetime through every phase (see README.md):
// setup, prefill, settle, paced, saturate, collect.
// idle > 0 first measures the connected daemon's CPU while it has no input.
func runE2E(o options, w workloadDef, s *stream, bin string, traced bool, idle time.Duration) (*e2eResult, error) {
	p := makePlan(o, w, s)
	ss := newSession(s, p, w.rate, traced)
	res := &e2eResult{ss: ss}
	last := time.Now()
	mark := func(phase string) {
		res.phases = append(res.phases, fmt.Sprintf("%s %.1fs", phase, time.Since(last).Seconds()))
		last = time.Now()
	}
	walDir, err := os.MkdirTemp(o.out, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	args := daemonArgs(w, s, walDir, traced)

	var d *daemon
	var l *link
	defer func() {
		if l != nil {
			l.close()
		}
		if d != nil {
			d.kill()
		}
	}()
	// start replaces the current daemon with a fresh one and returns the
	// time from spawn to the first barrier ack.
	start := func() (float64, error) {
		if d != nil {
			l.close()
			l = nil
			err := d.stop(true)
			d = nil
			if err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = spawnDaemon(bin, args); err != nil {
			return 0, err
		}
		if l, err = dialLink(d.addr, ss); err != nil {
			return 0, err
		}
		ss.daemonFirstID = ss.nextID
		if err := l.barrier(); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	}
	// Setup is timed o.setups times and reported as the median. Without a
	// WAL every start is cold; with one, the first (cold) start takes the
	// prefill and each timed start is a restart that recovers it.
	reps := o.setups
	if w.wal {
		if _, err := start(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < reps && !w.wal; i++ {
		sec, err := start()
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, sec)
	}
	if idle > 0 {
		c0, err := d.cpuSeconds()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		time.Sleep(idle)
		c1, err := d.cpuSeconds()
		if err != nil {
			return nil, err
		}
		res.idleCores = (c1 - c0) / time.Since(t0).Seconds()
	}
	mark("setup")
	if err := l.sendBulk(ss, 0, p.prefill); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	if err := l.barrier(); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	for i := 0; i < reps && w.wal; i++ {
		sec, err := start()
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, sec)
	}
	mark("prefill")

	// Settle + paced, with a snapshot when the measured part begins.
	var atPaced snapshot
	snapDone := make(chan struct{})
	trigger := make(chan struct{})
	go func() {
		defer close(snapDone)
		if _, ok := <-trigger; !ok {
			return
		}
		atPaced = takeSnapshot(d)
	}()
	err = l.sendPaced(ss, func() { trigger <- struct{}{} })
	close(trigger)
	<-snapDone
	if err != nil {
		return nil, fmt.Errorf("paced: %w", err)
	}
	afterPaced := takeSnapshot(d)
	res.rssMiB, err = d.peakRSSMiB()
	if err := errors.Join(atPaced.err, afterPaced.err, err); err != nil {
		return nil, fmt.Errorf("paced snapshot: %w", err)
	}
	if err := l.barrier(); err != nil {
		return nil, fmt.Errorf("paced: %w", err)
	}
	if traced {
		doc, err := d.tracez()
		if err != nil {
			return nil, err
		}
		res.spans = doc.Spans
	}
	mark("settle+paced")

	// Saturate: the rest of the stream, unpaced, in chunks.
	var rates []float64
	for c := 0; c < satChunks; c++ {
		from, to := p.satStart()+c*p.sat/satChunks, p.satStart()+(c+1)*p.sat/satChunks
		t0 := mono()
		if err := l.sendBulk(ss, from, to); err != nil {
			return nil, fmt.Errorf("saturate: %w", err)
		}
		if err := l.barrier(); err != nil {
			return nil, fmt.Errorf("saturate: %w", err)
		}
		rates = append(rates, float64(to-from)/(float64(mono()-t0)/1e9))
	}
	res.satRates = rates
	res.ingestTPS = median(rates)
	mark("saturate")

	// Collect.
	if res.rssEndMiB, err = d.peakRSSMiB(); err != nil {
		return nil, err
	}
	l.close()
	res.bytesPerTuple = float64(l.conn.in+l.conn.out) / float64(p.total())
	l = nil
	err = d.stop(false)
	d = nil
	if err != nil {
		return nil, err
	}

	nPaced := float64(p.paced)
	res.cpuUSPerTup = (afterPaced.daemonCPU - atPaced.daemonCPU) * 1e6 / nPaced
	res.genCPUUSPerTup = (afterPaced.benchCPU - atPaced.benchCPU) * 1e6 / nPaced
	o0, b0 := sumAllocs(atPaced.status)
	o1, b1 := sumAllocs(afterPaced.status)
	res.allocObjs = float64(o1-o0) / nPaced
	res.allocBytes = float64(b1-b0) / nPaced
	res.gcPauseP99US = afterPaced.status.Runtime.GCPauseP99Us
	mark("collect")
	res.latency(ss)
	res.check(ss)
	mark("check")
	return res, nil
}

// latency fills the request-latency and generator-lateness metrics: each
// paced request is timed from its scheduled send to its result, the paced
// phase is cut into latencyWindow slices by due time, and the reported
// p50/p99 are medians over the slices' own p50/p99.
func (res *e2eResult) latency(ss *session) {
	var p50s, p99s []float64
	var win []int64
	winNS := int64(latencyWindow)
	pacedDue := ss.dueNS(ss.pacedLo)
	flush := func() {
		if len(win) == 0 {
			return
		}
		sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
		p50s = append(p50s, float64(quantile(win, 0.50))/1e3)
		p99s = append(p99s, float64(quantile(win, 0.99))/1e3)
		res.samples += len(win)
		win = win[:0]
	}
	cur := int64(0)
	for id := ss.pacedLo; id < ss.pacedHi; id++ {
		due := ss.dueNS(id)
		if k := (due - pacedDue) / winNS; k != cur {
			flush()
			cur = k
		}
		if recv := ss.recvNS[id-ss.pacedLo]; recv != 0 {
			win = append(win, recv-ss.pacedStartNS-due)
		}
	}
	flush()
	res.windowP50, res.windowP99 = p50s, p99s
	res.p50US = median(p50s)
	res.p99US = median(p99s)
	late := append([]int64(nil), ss.lateNS...)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	res.genLateP50US = float64(quantile(late, 0.50)) / 1e3
	res.genLateP99US = float64(quantile(late, 0.99)) / 1e3
}

// check finishes the answer checks once the daemon has stopped: every
// request sent must have been answered, and every 64th answer is compared
// with the refjoin oracles fed the probes of its key in its window. An
// answer with more matches than the event-time oracle is wrong under any
// interleaving; one that differs from the arrival oracle is only stale (a
// probe routed to another joiner had not landed yet) and is reported, not
// failed.
func (res *e2eResult) check(ss *session) {
	for id := 0; id < ss.nextID; id++ {
		if ss.got[id] == 0 {
			ss.fails.missing++
		}
	}
	s := ss.s
	s.indexProbes() // before the workers share the index
	var ids []int
	for id := 0; id < ss.nextID; id += sampleEvery {
		if ss.got[id] != 0 {
			ids = append(ids, id)
		}
	}
	const workers = 2
	var oracleFails, stale [workers]int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var gs []int
			var buf []tuple.Tuple
			for i := wk; i < len(ids); i += workers {
				id := ids[i]
				gs, buf = oracleInput(s, int(ss.reqG[id]), gs, buf[:0])
				ar := refjoin.Arrival(buf, s.window(), agg.Sum)[0]
				et := refjoin.EventTime(buf, s.window(), agg.Sum)[0]
				a := ss.answers[id/sampleEvery]
				if a.matches > et.Matches {
					oracleFails[wk]++
				}
				if a.matches != ar.Matches || math.Abs(a.agg-ar.Agg) > 1e-6*math.Max(1, math.Abs(ar.Agg)) {
					stale[wk]++
				}
			}
		}(wk)
	}
	wg.Wait()
	var nStale int64
	for wk := 0; wk < workers; wk++ {
		ss.fails.oracle += oracleFails[wk]
		nStale += stale[wk]
	}
	if len(ids) > 0 {
		res.staleRatio = float64(nStale) / float64(len(ids))
	}
	res.attempted = int64(ss.nextID)
	res.fails = ss.fails
}

// oracleInput builds the oracles' input for the request at global index
// g: the probes of its key inside its window, in arrival order, with the
// request placed among them where it arrived.
func oracleInput(s *stream, g int, gs []int, buf []tuple.Tuple) ([]int, []tuple.Tuple) {
	r := s.at(g)
	lo, hi := s.window().Bounds(r.ts)
	gs = gs[:0]
	s.probesInWindow(r.key, lo, hi, func(pg int) { gs = append(gs, pg) })
	sort.Ints(gs)
	placed := false
	for _, pg := range gs {
		if pg > g && !placed {
			buf = append(buf, tuple.Tuple{TS: r.ts, Key: r.key, Val: r.val, Side: tuple.Base})
			placed = true
		}
		p := s.at(pg)
		buf = append(buf, tuple.Tuple{TS: p.ts, Key: p.key, Val: p.val, Side: tuple.Probe})
	}
	if !placed {
		buf = append(buf, tuple.Tuple{TS: r.ts, Key: r.key, Val: r.val, Side: tuple.Base})
	}
	return gs, buf
}
