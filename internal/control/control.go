// Package control is oijd's online feedback controller: a small rule
// engine that runs once per sampler epoch and retunes the serving stack
// against the live signals the observability layer already exports —
// joiner utilization and unbalancedness, ingest-funnel occupancy,
// watermark lag, the memory-pressure rung, and the windowed p99 request
// latency.
//
// The loop is signals → rules → actuators. Signals arrive as one
// immutable snapshot per epoch (built by the server's sampler), rules are
// pure threshold checks with hysteresis (a condition must hold for
// HoldEpochs consecutive epochs before an action fires, each actuator has
// a cooldown after acting, and relaxing requires a longer healthy streak
// than tightening required a sick one), and actuators are injected
// callbacks so the decision logic is table-testable without a server.
//
// Hysteresis rationale: every signal here is noisy at epoch granularity —
// utilization breathes with GC, p99 jumps on a single slow request — and
// an eager controller turns that noise into oscillation (scale up, scale
// down, scale up...), which is strictly worse than either steady state.
// Consecutive-epoch holds filter the noise, per-actuator cooldowns bound
// the slew rate, the asymmetric relax streak makes recovery deliberate
// ("fast to protect, slow to relax"), and a global decisions-per-minute
// budget is the backstop against any rule interaction storm.
//
// Every applied decision is recorded to the flight recorder as a
// ctl_decision event and kept in a bounded ring for /controlz, which also
// exposes a freeze switch (suppress all actions, keep observing) and
// manual overrides.
package control

import (
	"fmt"
	"sync"
	"time"

	"oij/internal/trace"
)

// Admission levels, ordered loosest to tightest. They mirror the server's
// admission policies; the controller only ever steps between adjacent
// levels.
const (
	AdmissionBlock  = 0 // backpressure: block the session reader
	AdmissionShed   = 1 // shed probe tuples, keep answering requests
	AdmissionReject = 2 // reject new requests outright
)

// AdmissionName renders an admission level ("block", "shed-probes",
// "reject") matching the server's policy names.
func AdmissionName(l int) string {
	switch l {
	case AdmissionShed:
		return "shed-probes"
	case AdmissionReject:
		return "reject"
	default:
		return "block"
	}
}

// Policy bands. /controlz reports them in its policy block.
const (
	// MinJoiners is the floor on the active joiner count.
	MinJoiners = 1
	// UtilHigh: mean active-joiner utilization at or above this arms a
	// scale-up. UtilLow: at or below this (with a healthy p99) arms a
	// scale-down.
	UtilHigh = 0.85
	UtilLow  = 0.25
	// UnbalanceHigh arms the skew scale-up rule: one pegged joiner
	// (MaxUtil >= UtilHigh) plus unbalancedness at or above this means
	// more team members would help even though the mean looks fine.
	UnbalanceHigh = 0.5
	// QueueHighFrac arms a scale-up when the ingest funnel is this full.
	QueueHighFrac = 0.5
	// P99HighFrac of Config.P99Target arms tightening; P99LowFrac of it
	// is the healthy bar for relaxing and scaling down.
	P99HighFrac = 0.9
	P99LowFrac  = 0.5
	// HoldEpochs is how many consecutive epochs a tightening condition
	// must hold before the controller acts. RelaxEpochs is the healthy
	// streak required before relaxing anything.
	HoldEpochs  = 3
	RelaxEpochs = 2 * HoldEpochs
	// CooldownEpochs is the minimum epochs between two actions on the
	// same actuator.
	CooldownEpochs = 5
	// MaxDecisionsPerMin is the global applied-decision budget; past it
	// the controller suppresses further actions until the window slides.
	MaxDecisionsPerMin = 12
	// TracePressureFactor multiplies the boot 1-in-N trace sampling rate
	// while the system is under pressure, so sampled tracing gets
	// coarser exactly when its overhead matters.
	TracePressureFactor = 8
	// MemSoftPctTight is the soft memory-guard watermark (percent of the
	// hard cap at which probe shedding starts) applied under sustained
	// hard memory pressure, replacing the boot value until recovery.
	MemSoftPctTight = 50
	// RingSize bounds the /controlz decision ring.
	RingSize = 128
)

// Config configures the controller.
type Config struct {
	// Enabled gates the whole loop; a zero Config is a disabled
	// controller.
	Enabled bool
	// MaxJoiners bounds the active joiner count the controller may set
	// (default: the boot joiner count).
	MaxJoiners int
	// P99Target is the latency SLO the admission ladder defends; zero
	// disables the latency rules.
	P99Target time.Duration

	// holdEpochs, relaxEpochs, cooldownEpochs and maxDecisionsPerMin
	// replace HoldEpochs, RelaxEpochs, CooldownEpochs and
	// MaxDecisionsPerMin when set; tests shorten them to keep decision
	// tables small.
	holdEpochs, relaxEpochs, cooldownEpochs, maxDecisionsPerMin int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.holdEpochs <= 0 {
		c.holdEpochs = HoldEpochs
	}
	if c.relaxEpochs <= 0 {
		c.relaxEpochs = RelaxEpochs
	}
	if c.cooldownEpochs <= 0 {
		c.cooldownEpochs = CooldownEpochs
	}
	if c.maxDecisionsPerMin <= 0 {
		c.maxDecisionsPerMin = MaxDecisionsPerMin
	}
	return c
}

// Signals is one epoch's snapshot of the system, built by the sampler.
type Signals struct {
	// Epoch is the sampler epoch index.
	Epoch uint64
	// ActiveJoiners is the engine's current active joiner count.
	ActiveJoiners int
	// MeanUtil/MaxUtil are utilization over the *active* joiners, 0..1.
	MeanUtil float64
	MaxUtil  float64
	// Unbalancedness is Eq. 2 over the active joiners' workloads.
	Unbalancedness float64
	// QueueFrac is the ingest-funnel occupancy, 0..1.
	QueueFrac float64
	// WatermarkLagS is the live watermark lag in event-time seconds.
	WatermarkLagS float64
	// MemLevel is the memory guard rung (0 none, 1 soft, 2 hard).
	MemLevel int
	// P99 is the windowed p99 request latency (0 when no requests).
	P99 time.Duration
	// ShedRate is admission sheds per second over the window.
	ShedRate float64
}

// compact renders the signal vector for the decision log.
func (s Signals) compact() string {
	return fmt.Sprintf("util=%.2f max=%.2f unb=%.2f q=%.2f lag=%.1fs mem=%d p99=%s shed=%.1f/s",
		s.MeanUtil, s.MaxUtil, s.Unbalancedness, s.QueueFrac,
		s.WatermarkLagS, s.MemLevel, s.P99.Round(time.Millisecond), s.ShedRate)
}

// Actuators are the knobs the controller may turn. Each is optional —
// a nil actuator disables its rules (an engine without a Resize path
// simply never sees joiner decisions). All are invoked from the sampler
// goroutine (Step's caller) or the /controlz handler (Override).
type Actuators struct {
	// ResizeJoiners requests the engine's active joiner count become n;
	// false means the engine cannot resize and the controller stops
	// trying.
	ResizeJoiners func(n int) bool
	// SetAdmission applies an admission level (AdmissionBlock..Reject).
	SetAdmission func(level int)
	// SetTraceSample retunes the 1-in-N request-trace sampling rate.
	SetTraceSample func(n int)
	// SetMemSoftPct retunes the memory guard's soft watermark percent.
	SetMemSoftPct func(pct int)
}

// Boot is the serving stack's state at controller start — the values the
// controller treats as "home" and relaxes back toward.
type Boot struct {
	Joiners      int
	Admission    int
	TraceSampleN int
	MemSoftPct   int
}

// Rule identifiers, stable for the flight recorder's a-field.
const (
	ruleScaleUpUtil = iota + 1
	ruleScaleUpSkew
	ruleScaleUpQueue
	ruleScaleDown
	ruleTighten
	ruleRelax
	ruleTraceCoarsen
	ruleTraceRestore
	ruleMemTighten
	ruleMemRestore
	ruleManual
	ruleFreeze
)

var ruleNames = map[int]string{
	ruleScaleUpUtil:  "scale-up-util",
	ruleScaleUpSkew:  "scale-up-skew",
	ruleScaleUpQueue: "scale-up-queue",
	ruleScaleDown:    "scale-down",
	ruleTighten:      "admission-tighten",
	ruleRelax:        "admission-relax",
	ruleTraceCoarsen: "trace-coarsen",
	ruleTraceRestore: "trace-restore",
	ruleMemTighten:   "mem-soft-tighten",
	ruleMemRestore:   "mem-soft-restore",
	ruleManual:       "manual-override",
	ruleFreeze:       "freeze",
}

// Decision is one recorded controller action (or manual override).
type Decision struct {
	Seq      uint64 `json:"seq"`
	WallNS   int64  `json:"wall_ns"`
	Epoch    uint64 `json:"epoch"`
	Rule     string `json:"rule"`
	Actuator string `json:"actuator"`
	Old      int64  `json:"old"`
	New      int64  `json:"new"`
	OldName  string `json:"old_name,omitempty"`
	NewName  string `json:"new_name,omitempty"`
	Inputs   string `json:"inputs"`
}

// Controller owns the rule state. All mutable state is behind one mutex:
// Step runs at epoch cadence (1/s by default) and /controlz reads are
// rare, so there is nothing to shave.
type Controller struct {
	cfg Config
	act Actuators
	fr  *trace.Flight

	mu     sync.Mutex
	frozen bool

	// Current knob values (what the controller believes it has applied).
	joiners    int
	admission  int
	traceN     int
	memSoftPct int
	boot       Boot

	// resizeBroken latches when ResizeJoiners returns false: the engine
	// cannot resize, stop asking.
	resizeBroken bool

	// Hysteresis state: consecutive-epoch condition counters and the
	// epoch each actuator last acted.
	upHold, downHold       int
	tightHold, relaxHold   int
	memTightHold, memRelax int
	pressureHold           int
	lastJoiners, lastAdm   uint64 // epoch of last action; ^0 = never
	lastTrace, lastMem     uint64
	// epoch is the newest epoch Step saw: an Override acts "at" it, so
	// a manual change starts the same cooldown a rule-driven one does.
	epoch uint64

	// Decision log and rate limiting.
	ring       []Decision
	next       int
	seq        uint64
	applied    uint64
	suppressed uint64
	recent     []int64 // wall ns of recent applied decisions (rate window)
}

// New builds a controller. boot seeds the knob values the controller
// relaxes back toward; fr may be nil (decisions still reach the ring).
func New(cfg Config, boot Boot, act Actuators, fr *trace.Flight) *Controller {
	cfg = cfg.withDefaults()
	if cfg.MaxJoiners < boot.Joiners {
		cfg.MaxJoiners = boot.Joiners
	}
	c := &Controller{
		cfg:        cfg,
		act:        act,
		fr:         fr,
		joiners:    boot.Joiners,
		admission:  boot.Admission,
		traceN:     boot.TraceSampleN,
		memSoftPct: boot.MemSoftPct,
		boot:       boot,
		ring:       make([]Decision, 0, RingSize),
	}
	c.lastJoiners, c.lastAdm = ^uint64(0), ^uint64(0)
	c.lastTrace, c.lastMem = ^uint64(0), ^uint64(0)
	return c
}

// Frozen reports whether the controller is frozen (observing, not acting).
func (c *Controller) Frozen() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frozen
}

// SetFrozen flips the freeze switch. Freezing is itself an auditable
// event: it lands in the flight recorder and the decision ring.
func (c *Controller) SetFrozen(now time.Time, frozen bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frozen == frozen {
		return
	}
	c.frozen = frozen
	from, to := int64(0), int64(1)
	if !frozen {
		from, to = 1, 0
	}
	c.record(now, 0, ruleFreeze, "freeze", from, to, "", "", "manual")
	var a uint64
	if frozen {
		a = 1
	}
	c.fr.Record(trace.CompControl, trace.EvCtlFreeze, a, 0)
}

// cooled reports whether the actuator last acting at last has sat out its
// cooldown by epoch.
func (c *Controller) cooled(epoch, last uint64) bool {
	return last == ^uint64(0) || epoch >= last+uint64(c.cfg.cooldownEpochs)
}

// budget reports whether the decisions-per-minute budget allows another
// action at now, pruning the slid-out window.
func (c *Controller) budget(now time.Time) bool {
	cut := now.Add(-time.Minute).UnixNano()
	keep := c.recent[:0]
	for _, t := range c.recent {
		if t > cut {
			keep = append(keep, t)
		}
	}
	c.recent = keep
	return len(c.recent) < c.cfg.maxDecisionsPerMin
}

// record appends a decision to the ring and the flight recorder.
func (c *Controller) record(now time.Time, epoch uint64, ruleID int, actuator string, oldV, newV int64, oldName, newName, inputs string) {
	c.seq++
	d := Decision{
		Seq: c.seq, WallNS: now.UnixNano(), Epoch: epoch,
		Rule: ruleNames[ruleID], Actuator: actuator,
		Old: oldV, New: newV, OldName: oldName, NewName: newName,
		Inputs: inputs,
	}
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, d)
	} else {
		c.ring[c.next] = d
		c.next = (c.next + 1) % len(c.ring)
	}
	c.fr.Record(trace.CompControl, trace.EvCtlDecision,
		uint64(ruleID), uint64(uint32(oldV))<<32|uint64(uint32(newV)))
}

// apply runs one actuator change end to end: budget check, the actuator
// call, the decision log, rate accounting.
func (c *Controller) apply(now time.Time, sig Signals, ruleID int, actuator string, oldV, newV int64, oldName, newName string, fn func() bool) *Decision {
	if !c.budget(now) {
		c.suppressed++
		return nil
	}
	if fn != nil && !fn() {
		return nil
	}
	c.applied++
	c.recent = append(c.recent, now.UnixNano())
	c.record(now, sig.Epoch, ruleID, actuator, oldV, newV, oldName, newName, sig.compact())
	return &c.ring[(c.next+len(c.ring)-1)%len(c.ring)]
}

// Step evaluates every rule against one epoch's signals, applies what
// fired, and returns the applied decisions. Sampler goroutine only.
func (c *Controller) Step(now time.Time, sig Signals) []Decision {
	if c == nil || !c.cfg.Enabled {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = sig.Epoch
	if c.frozen {
		return nil
	}
	var out []Decision
	if d := c.stepJoiners(now, sig); d != nil {
		out = append(out, *d)
	}
	if d := c.stepAdmission(now, sig); d != nil {
		out = append(out, *d)
	}
	if d := c.stepTrace(now, sig); d != nil {
		out = append(out, *d)
	}
	if d := c.stepMem(now, sig); d != nil {
		out = append(out, *d)
	}
	return out
}

// p99Healthy reports whether the windowed p99 sits safely under the
// target (vacuously true with the latency rules disabled).
func (c *Controller) p99Healthy(sig Signals) bool {
	if c.cfg.P99Target <= 0 {
		return true
	}
	return float64(sig.P99) <= P99LowFrac*float64(c.cfg.P99Target)
}

// scaleUpWanted reports whether any scale-up condition holds, and which.
func (c *Controller) scaleUpWanted(sig Signals) (int, bool) {
	switch {
	case sig.MeanUtil >= UtilHigh:
		return ruleScaleUpUtil, true
	case sig.QueueFrac >= QueueHighFrac:
		return ruleScaleUpQueue, true
	case sig.MaxUtil >= UtilHigh && sig.Unbalancedness >= UnbalanceHigh:
		return ruleScaleUpSkew, true
	}
	return 0, false
}

func (c *Controller) stepJoiners(now time.Time, sig Signals) *Decision {
	if c.act.ResizeJoiners == nil || c.resizeBroken {
		return nil
	}
	upRule, up := c.scaleUpWanted(sig)
	down := sig.MeanUtil <= UtilLow && sig.QueueFrac < QueueHighFrac &&
		c.p99Healthy(sig) && sig.MemLevel == 0
	switch {
	case up:
		c.upHold++
		c.downHold = 0
	case down:
		c.downHold++
		c.upHold = 0
	default:
		c.upHold, c.downHold = 0, 0
	}
	if up && c.upHold >= c.cfg.holdEpochs && c.joiners < c.cfg.MaxJoiners &&
		c.cooled(sig.Epoch, c.lastJoiners) {
		return c.resizeTo(now, sig, upRule, c.joiners+1)
	}
	if down && c.downHold >= c.cfg.relaxEpochs && c.joiners > MinJoiners &&
		c.cooled(sig.Epoch, c.lastJoiners) {
		return c.resizeTo(now, sig, ruleScaleDown, c.joiners-1)
	}
	return nil
}

// resizeTo applies one joiner-count step.
func (c *Controller) resizeTo(now time.Time, sig Signals, ruleID, n int) *Decision {
	old := c.joiners
	d := c.apply(now, sig, ruleID, "joiners", int64(old), int64(n), "", "", func() bool {
		if !c.act.ResizeJoiners(n) {
			c.resizeBroken = true
			return false
		}
		return true
	})
	if d != nil {
		c.joiners = n
		c.lastJoiners = sig.Epoch
		c.upHold, c.downHold = 0, 0
	}
	return d
}

func (c *Controller) stepAdmission(now time.Time, sig Signals) *Decision {
	if c.act.SetAdmission == nil {
		return nil
	}
	burning := sig.MemLevel >= 2
	if c.cfg.P99Target > 0 && sig.P99 > 0 &&
		float64(sig.P99) >= P99HighFrac*float64(c.cfg.P99Target) {
		burning = true
	}
	healthy := sig.MemLevel == 0 && c.p99Healthy(sig)
	switch {
	case burning:
		c.tightHold++
		c.relaxHold = 0
	case healthy:
		c.relaxHold++
		c.tightHold = 0
	default:
		c.tightHold, c.relaxHold = 0, 0
	}
	if burning && c.tightHold >= c.cfg.holdEpochs && c.admission < AdmissionReject &&
		c.cooled(sig.Epoch, c.lastAdm) {
		return c.admitTo(now, sig, ruleTighten, c.admission+1)
	}
	if healthy && c.relaxHold >= c.cfg.relaxEpochs && c.admission > c.boot.Admission &&
		c.cooled(sig.Epoch, c.lastAdm) {
		return c.admitTo(now, sig, ruleRelax, c.admission-1)
	}
	return nil
}

// admitTo applies one admission-level step.
func (c *Controller) admitTo(now time.Time, sig Signals, ruleID, level int) *Decision {
	old := c.admission
	d := c.apply(now, sig, ruleID, "admission", int64(old), int64(level),
		AdmissionName(old), AdmissionName(level), func() bool {
			c.act.SetAdmission(level)
			return true
		})
	if d != nil {
		c.admission = level
		c.lastAdm = sig.Epoch
		c.tightHold, c.relaxHold = 0, 0
	}
	return d
}

// underPressure reports whether the stack is visibly stressed — the gate
// for coarsening trace sampling.
func (c *Controller) underPressure(sig Signals) bool {
	return c.admission > c.boot.Admission || sig.MemLevel >= 1
}

func (c *Controller) stepTrace(now time.Time, sig Signals) *Decision {
	if c.act.SetTraceSample == nil || c.boot.TraceSampleN <= 0 {
		return nil
	}
	if c.underPressure(sig) {
		c.pressureHold++
	} else {
		c.pressureHold = 0
	}
	coarse := c.boot.TraceSampleN * TracePressureFactor
	if c.pressureHold >= c.cfg.holdEpochs && c.traceN == c.boot.TraceSampleN &&
		c.cooled(sig.Epoch, c.lastTrace) {
		d := c.apply(now, sig, ruleTraceCoarsen, "trace_sample_n",
			int64(c.traceN), int64(coarse), "", "", func() bool {
				c.act.SetTraceSample(coarse)
				return true
			})
		if d != nil {
			c.traceN = coarse
			c.lastTrace = sig.Epoch
		}
		return d
	}
	if !c.underPressure(sig) && sig.MemLevel == 0 && c.traceN != c.boot.TraceSampleN &&
		c.relaxHold >= c.cfg.relaxEpochs && c.cooled(sig.Epoch, c.lastTrace) {
		d := c.apply(now, sig, ruleTraceRestore, "trace_sample_n",
			int64(c.traceN), int64(c.boot.TraceSampleN), "", "", func() bool {
				c.act.SetTraceSample(c.boot.TraceSampleN)
				return true
			})
		if d != nil {
			c.traceN = c.boot.TraceSampleN
			c.lastTrace = sig.Epoch
		}
		return d
	}
	return nil
}

func (c *Controller) stepMem(now time.Time, sig Signals) *Decision {
	if c.act.SetMemSoftPct == nil {
		return nil
	}
	if sig.MemLevel >= 2 {
		c.memTightHold++
		c.memRelax = 0
	} else if sig.MemLevel == 0 {
		c.memRelax++
		c.memTightHold = 0
	} else {
		c.memTightHold, c.memRelax = 0, 0
	}
	if c.memTightHold >= c.cfg.holdEpochs && c.memSoftPct != MemSoftPctTight &&
		c.cooled(sig.Epoch, c.lastMem) {
		d := c.apply(now, sig, ruleMemTighten, "mem_soft_pct",
			int64(c.memSoftPct), int64(MemSoftPctTight), "", "", func() bool {
				c.act.SetMemSoftPct(MemSoftPctTight)
				return true
			})
		if d != nil {
			c.memSoftPct = MemSoftPctTight
			c.lastMem = sig.Epoch
		}
		return d
	}
	if c.memRelax >= c.cfg.relaxEpochs && c.memSoftPct != c.boot.MemSoftPct &&
		c.cooled(sig.Epoch, c.lastMem) {
		d := c.apply(now, sig, ruleMemRestore, "mem_soft_pct",
			int64(c.memSoftPct), int64(c.boot.MemSoftPct), "", "", func() bool {
				c.act.SetMemSoftPct(c.boot.MemSoftPct)
				return true
			})
		if d != nil {
			c.memSoftPct = c.boot.MemSoftPct
			c.lastMem = sig.Epoch
		}
		return d
	}
	return nil
}

// Override applies a manual actuator change from /controlz, bypassing
// rules, holds, and the freeze switch (a frozen controller is exactly the
// state where an operator drives by hand). Like a rule-driven change, a
// joiner or admission override clears that actuator's holds and starts its
// cooldown at the newest stepped epoch, so the next idle epoch cannot undo
// it. Returns the recorded decision or an error for unknown
// actuators/values.
func (c *Controller) Override(now time.Time, actuator string, value int) (Decision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero Decision
	switch actuator {
	case "joiners":
		if c.act.ResizeJoiners == nil {
			return zero, fmt.Errorf("control: engine does not support resize")
		}
		if value < 1 {
			return zero, fmt.Errorf("control: joiners must be >= 1")
		}
		old := c.joiners
		if !c.act.ResizeJoiners(value) {
			return zero, fmt.Errorf("control: engine refused resize")
		}
		c.joiners = value
		c.lastJoiners = c.epoch
		c.upHold, c.downHold = 0, 0
		c.record(now, 0, ruleManual, actuator, int64(old), int64(value), "", "", "manual")
		return c.lastDecision(), nil
	case "admission":
		if c.act.SetAdmission == nil {
			return zero, fmt.Errorf("control: admission actuator unavailable")
		}
		if value < AdmissionBlock || value > AdmissionReject {
			return zero, fmt.Errorf("control: admission level out of range")
		}
		old := c.admission
		c.act.SetAdmission(value)
		c.admission = value
		c.lastAdm = c.epoch
		c.tightHold, c.relaxHold = 0, 0
		c.record(now, 0, ruleManual, actuator, int64(old), int64(value),
			AdmissionName(old), AdmissionName(value), "manual")
		return c.lastDecision(), nil
	case "trace_sample_n":
		if c.act.SetTraceSample == nil {
			return zero, fmt.Errorf("control: trace actuator unavailable")
		}
		if value < 0 {
			return zero, fmt.Errorf("control: trace_sample_n must be >= 0")
		}
		old := c.traceN
		c.act.SetTraceSample(value)
		c.traceN = value
		c.record(now, 0, ruleManual, actuator, int64(old), int64(value), "", "", "manual")
		return c.lastDecision(), nil
	case "mem_soft_pct":
		if c.act.SetMemSoftPct == nil {
			return zero, fmt.Errorf("control: mem actuator unavailable")
		}
		if value < 1 || value > 100 {
			return zero, fmt.Errorf("control: mem_soft_pct must be in [1,100]")
		}
		old := c.memSoftPct
		c.act.SetMemSoftPct(value)
		c.memSoftPct = value
		c.record(now, 0, ruleManual, actuator, int64(old), int64(value), "", "", "manual")
		return c.lastDecision(), nil
	}
	return zero, fmt.Errorf("control: unknown actuator %q", actuator)
}

// lastDecision returns the newest ring entry. Caller holds mu and has
// recorded at least once.
func (c *Controller) lastDecision() Decision {
	return c.ring[(c.next+len(c.ring)-1)%len(c.ring)]
}

// Snapshot is the /controlz document.
type Snapshot struct {
	Enabled    bool       `json:"enabled"`
	Frozen     bool       `json:"frozen"`
	Joiners    int        `json:"joiners"`
	Admission  string     `json:"admission"`
	TraceN     int        `json:"trace_sample_n"`
	MemSoftPct int        `json:"mem_soft_pct"`
	Boot       BootSnap   `json:"boot"`
	Policy     PolicySnap `json:"policy"`
	Applied    uint64     `json:"applied_decisions"`
	Suppressed uint64     `json:"suppressed_decisions"`
	Decisions  []Decision `json:"decisions"`
}

// BootSnap renders the boot ("home") knob values.
type BootSnap struct {
	Joiners    int    `json:"joiners"`
	Admission  string `json:"admission"`
	TraceN     int    `json:"trace_sample_n"`
	MemSoftPct int    `json:"mem_soft_pct"`
}

// PolicySnap renders the effective policy bands.
type PolicySnap struct {
	MinJoiners         int     `json:"min_joiners"`
	MaxJoiners         int     `json:"max_joiners"`
	UtilHigh           float64 `json:"util_high"`
	UtilLow            float64 `json:"util_low"`
	UnbalanceHigh      float64 `json:"unbalance_high"`
	QueueHighFrac      float64 `json:"queue_high_frac"`
	P99TargetMS        float64 `json:"p99_target_ms"`
	HoldEpochs         int     `json:"hold_epochs"`
	RelaxEpochs        int     `json:"relax_epochs"`
	CooldownEpochs     int     `json:"cooldown_epochs"`
	MaxDecisionsPerMin int     `json:"max_decisions_per_min"`
}

// Snapshot renders the controller for /controlz, newest decision first.
func (c *Controller) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{Decisions: []Decision{}}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Enabled:    c.cfg.Enabled,
		Frozen:     c.frozen,
		Joiners:    c.joiners,
		Admission:  AdmissionName(c.admission),
		TraceN:     c.traceN,
		MemSoftPct: c.memSoftPct,
		Boot: BootSnap{
			Joiners: c.boot.Joiners, Admission: AdmissionName(c.boot.Admission),
			TraceN: c.boot.TraceSampleN, MemSoftPct: c.boot.MemSoftPct,
		},
		Policy: PolicySnap{
			MinJoiners: MinJoiners, MaxJoiners: c.cfg.MaxJoiners,
			UtilHigh: UtilHigh, UtilLow: UtilLow,
			UnbalanceHigh: UnbalanceHigh, QueueHighFrac: QueueHighFrac,
			P99TargetMS:        float64(c.cfg.P99Target) / float64(time.Millisecond),
			HoldEpochs:         c.cfg.holdEpochs,
			RelaxEpochs:        c.cfg.relaxEpochs,
			CooldownEpochs:     c.cfg.cooldownEpochs,
			MaxDecisionsPerMin: c.cfg.maxDecisionsPerMin,
		},
		Applied:    c.applied,
		Suppressed: c.suppressed,
		Decisions:  []Decision{},
	}
	// Newest first.
	n := len(c.ring)
	for i := 0; i < n; i++ {
		s.Decisions = append(s.Decisions, c.ring[(c.next+n-1-i)%n])
	}
	return s
}

// Applied returns the number of applied decisions so far.
func (c *Controller) Applied() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
}
