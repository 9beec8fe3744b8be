package control

import (
	"strings"
	"testing"
	"time"

	"oij/internal/trace"
)

// fakeActs records every actuator invocation so tests can assert exactly
// what the controller did.
type fakeActs struct {
	resizes    []int
	admissions []int
	traceNs    []int
	memPcts    []int
	refuse     bool
}

func (f *fakeActs) actuators() Actuators {
	return Actuators{
		ResizeJoiners: func(n int) bool {
			if f.refuse {
				return false
			}
			f.resizes = append(f.resizes, n)
			return true
		},
		SetAdmission:   func(l int) { f.admissions = append(f.admissions, l) },
		SetTraceSample: func(n int) { f.traceNs = append(f.traceNs, n) },
		SetMemSoftPct:  func(p int) { f.memPcts = append(f.memPcts, p) },
	}
}

// testCfg is a small, fast policy: hold 2, relax 3, cooldown 2, so the
// tables stay readable.
func testCfg() Config {
	return Config{
		Enabled:            true,
		MaxJoiners:         4,
		P99Target:          100 * time.Millisecond,
		holdEpochs:         2,
		relaxEpochs:        3,
		cooldownEpochs:     2,
		maxDecisionsPerMin: 100,
	}
}

func testBoot() Boot {
	return Boot{Joiners: 2, Admission: AdmissionBlock, TraceSampleN: 100, MemSoftPct: 75}
}

// drive feeds the signal vectors one per epoch (1s apart) and returns
// every applied decision in order.
func drive(t *testing.T, c *Controller, sigs []Signals) []Decision {
	t.Helper()
	var out []Decision
	now := time.Unix(1000, 0)
	for i, s := range sigs {
		s.Epoch = uint64(i + 1)
		out = append(out, c.Step(now.Add(time.Duration(i)*time.Second), s)...)
	}
	return out
}

// repeat builds n copies of one signal vector.
func repeat(s Signals, n int) []Signals {
	out := make([]Signals, n)
	for i := range out {
		out[i] = s
	}
	return out
}

var (
	idle      = Signals{ActiveJoiners: 2, MeanUtil: 0.10, P99: 10 * time.Millisecond}
	saturated = Signals{ActiveJoiners: 2, MeanUtil: 0.95, MaxUtil: 0.99, P99: 40 * time.Millisecond}
	skewed    = Signals{ActiveJoiners: 2, MeanUtil: 0.50, MaxUtil: 0.97, Unbalancedness: 0.9, P99: 40 * time.Millisecond}
	queued    = Signals{ActiveJoiners: 2, MeanUtil: 0.60, QueueFrac: 0.8, P99: 40 * time.Millisecond}
	burning   = Signals{ActiveJoiners: 2, MeanUtil: 0.60, P99: 95 * time.Millisecond}
	healthy   = Signals{ActiveJoiners: 2, MeanUtil: 0.40, P99: 20 * time.Millisecond}
	memHard   = Signals{ActiveJoiners: 2, MeanUtil: 0.40, MemLevel: 2, P99: 30 * time.Millisecond}
)

func TestDecisionRules(t *testing.T) {
	cases := []struct {
		name string
		sigs []Signals
		// wantRules are the expected applied rules in order (prefix
		// match against the full decision stream).
		wantRules []string
		// wantResizes / wantAdmissions assert the actuator call streams.
		wantResizes    []int
		wantAdmissions []int
	}{
		{
			name:        "saturated scales up after hold",
			sigs:        repeat(saturated, 3),
			wantRules:   []string{"scale-up-util"},
			wantResizes: []int{3},
		},
		{
			name:      "one hot epoch is not enough",
			sigs:      append(repeat(saturated, 1), repeat(healthy, 4)...),
			wantRules: nil,
		},
		{
			name:        "skew scales up even at moderate mean util",
			sigs:        repeat(skewed, 3),
			wantRules:   []string{"scale-up-skew"},
			wantResizes: []int{3},
		},
		{
			name:        "full funnel scales up",
			sigs:        repeat(queued, 3),
			wantRules:   []string{"scale-up-queue"},
			wantResizes: []int{3},
		},
		{
			name:        "sustained saturation keeps scaling to the cap, cooldown-paced",
			sigs:        repeat(saturated, 20),
			wantRules:   []string{"scale-up-util", "scale-up-util"},
			wantResizes: []int{3, 4},
		},
		{
			name:        "idle scales down only after the longer relax streak",
			sigs:        repeat(idle, 4),
			wantRules:   []string{"scale-down"},
			wantResizes: []int{1},
		},
		{
			name:           "p99 burn tightens admission, then keeps stepping",
			sigs:           repeat(burning, 12),
			wantRules:      []string{"admission-tighten", "trace-coarsen", "admission-tighten"},
			wantAdmissions: []int{AdmissionShed, AdmissionReject},
		},
		{
			name:           "hard memory pressure tightens admission too",
			sigs:           repeat(memHard, 3),
			wantRules:      []string{"admission-tighten", "trace-coarsen", "mem-soft-tighten"},
			wantAdmissions: []int{AdmissionShed},
		},
		{
			name: "recovery relaxes back to boot with hysteresis",
			sigs: append(repeat(burning, 3), repeat(healthy, 12)...),
			wantRules: []string{
				"admission-tighten", "trace-coarsen", "admission-relax", "trace-restore",
			},
			wantAdmissions: []int{AdmissionShed, AdmissionBlock},
		},
		{
			name: "oscillating signals never fire",
			sigs: []Signals{
				saturated, idle, saturated, idle, saturated, idle,
				saturated, idle, saturated, idle, saturated, idle,
			},
			wantRules: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			acts := &fakeActs{}
			c := New(testCfg(), testBoot(), acts.actuators(), nil)
			got := drive(t, c, tc.sigs)
			var rules []string
			for _, d := range got {
				rules = append(rules, d.Rule)
			}
			if len(rules) < len(tc.wantRules) {
				t.Fatalf("rules = %v, want prefix %v", rules, tc.wantRules)
			}
			for i, w := range tc.wantRules {
				if rules[i] != w {
					t.Fatalf("rules = %v, want prefix %v", rules, tc.wantRules)
				}
			}
			if tc.wantRules == nil && len(rules) != 0 {
				t.Fatalf("expected no decisions, got %v", rules)
			}
			if tc.wantResizes != nil && !equalInts(acts.resizes, tc.wantResizes) {
				t.Fatalf("resizes = %v, want %v", acts.resizes, tc.wantResizes)
			}
			if tc.wantAdmissions != nil && !equalInts(acts.admissions, tc.wantAdmissions) {
				t.Fatalf("admissions = %v, want %v", acts.admissions, tc.wantAdmissions)
			}
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDecisionCarriesInputsAndValues(t *testing.T) {
	acts := &fakeActs{}
	c := New(testCfg(), testBoot(), acts.actuators(), nil)
	ds := drive(t, c, repeat(saturated, 3))
	if len(ds) == 0 {
		t.Fatal("no decision")
	}
	d := ds[0]
	if d.Actuator != "joiners" || d.Old != 2 || d.New != 3 {
		t.Fatalf("decision = %+v, want joiners 2->3", d)
	}
	if !strings.Contains(d.Inputs, "util=0.95") {
		t.Fatalf("inputs %q missing signal vector", d.Inputs)
	}
	if d.Epoch == 0 || d.WallNS == 0 {
		t.Fatalf("decision missing provenance: %+v", d)
	}
}

func TestFreezeSuppressesAllActions(t *testing.T) {
	acts := &fakeActs{}
	c := New(testCfg(), testBoot(), acts.actuators(), nil)
	c.SetFrozen(time.Unix(999, 0), true)
	// Signals that would otherwise trip every rule.
	mix := append(repeat(saturated, 5), repeat(burning, 8)...)
	mix = append(mix, repeat(memHard, 8)...)
	if got := drive(t, c, mix); len(got) != 0 {
		t.Fatalf("frozen controller acted: %v", got)
	}
	if len(acts.resizes)+len(acts.admissions)+len(acts.traceNs)+len(acts.memPcts) != 0 {
		t.Fatal("frozen controller touched actuators")
	}
	if !c.Frozen() {
		t.Fatal("Frozen() = false")
	}
	// Unfreeze: the same pressure now acts.
	c.SetFrozen(time.Unix(1200, 0), false)
	if got := drive(t, c, repeat(saturated, 3)); len(got) == 0 {
		t.Fatal("unfrozen controller still suppressed")
	}
	// The freeze/unfreeze flips are themselves in the decision log.
	snap := c.Snapshot()
	var freezes int
	for _, d := range snap.Decisions {
		if d.Rule == "freeze" {
			freezes++
		}
	}
	if freezes != 2 {
		t.Fatalf("freeze decisions = %d, want 2", freezes)
	}
}

func TestOverrideAppliesAndRecords(t *testing.T) {
	acts := &fakeActs{}
	c := New(testCfg(), testBoot(), acts.actuators(), nil)
	c.SetFrozen(time.Unix(999, 0), true) // overrides work while frozen
	d, err := c.Override(time.Unix(1000, 0), "joiners", 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rule != "manual-override" || d.New != 4 {
		t.Fatalf("override decision = %+v", d)
	}
	if !equalInts(acts.resizes, []int{4}) {
		t.Fatalf("resizes = %v", acts.resizes)
	}
	if _, err := c.Override(time.Unix(1001, 0), "admission", AdmissionReject); err != nil {
		t.Fatal(err)
	}
	if snap := c.Snapshot(); snap.Admission != "reject" || snap.Joiners != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if _, err := c.Override(time.Unix(1002, 0), "bogus", 1); err == nil {
		t.Fatal("unknown actuator accepted")
	}
	if _, err := c.Override(time.Unix(1003, 0), "admission", 9); err == nil {
		t.Fatal("out-of-range admission accepted")
	}
}

// TestOverrideStartsCooldown: a manual change starts the same cooldown a
// rule-driven one does and clears the holds built before it, so the idle
// epochs right after an operator's resize cannot undo it.
func TestOverrideStartsCooldown(t *testing.T) {
	cfg := testCfg()
	cfg.cooldownEpochs = 5
	acts := &fakeActs{}
	c := New(cfg, testBoot(), acts.actuators(), nil)
	now := time.Unix(1000, 0)
	// step returns the epoch's joiner and admission decisions (the trace
	// rule coarsens sampling under the reject level; it is not under test).
	step := func(epoch uint64) []Decision {
		s := idle
		s.Epoch = epoch
		var out []Decision
		for _, d := range c.Step(now.Add(time.Duration(epoch)*time.Second), s) {
			if d.Actuator == "joiners" || d.Actuator == "admission" {
				out = append(out, d)
			}
		}
		return out
	}
	// Two idle epochs build scale-down and relax holds one short of
	// RelaxEpochs; then the operator acts.
	for e := uint64(1); e <= 2; e++ {
		if got := step(e); len(got) != 0 {
			t.Fatalf("epoch %d: decisions before the override: %v", e, got)
		}
	}
	if _, err := c.Override(now.Add(2500*time.Millisecond), "joiners", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Override(now.Add(2500*time.Millisecond), "admission", AdmissionReject); err != nil {
		t.Fatal(err)
	}
	for e := uint64(3); e < 2+uint64(cfg.cooldownEpochs); e++ {
		if got := step(e); len(got) != 0 {
			t.Fatalf("epoch %d: decision inside the override's cooldown: %+v", e, got)
		}
	}
	if !equalInts(acts.resizes, []int{3}) || !equalInts(acts.admissions, []int{AdmissionReject}) {
		t.Fatalf("actuators touched inside the cooldown: resizes %v admissions %v", acts.resizes, acts.admissions)
	}
	// The cooldown ends: the idle rules act again, one step each.
	got := step(2 + uint64(cfg.cooldownEpochs))
	if len(got) != 2 || got[0].Actuator != "joiners" || got[0].New != 2 ||
		got[1].Actuator != "admission" || got[1].New != AdmissionShed {
		t.Fatalf("first decisions after the cooldown = %+v", got)
	}
}

func TestDecisionRateBounded(t *testing.T) {
	cfg := testCfg()
	cfg.holdEpochs = 1
	cfg.cooldownEpochs = 1
	cfg.maxDecisionsPerMin = 2
	cfg.MaxJoiners = 64
	acts := &fakeActs{}
	c := New(cfg, testBoot(), acts.actuators(), nil)
	got := drive(t, c, repeat(saturated, 30))
	if len(got) > 2 {
		t.Fatalf("%d decisions within a minute, budget 2", len(got))
	}
	snap := c.Snapshot()
	if snap.Suppressed == 0 {
		t.Fatal("no suppressions recorded despite exhausted budget")
	}
}

func TestResizeRefusalLatches(t *testing.T) {
	acts := &fakeActs{refuse: true}
	c := New(testCfg(), testBoot(), acts.actuators(), nil)
	if got := drive(t, c, repeat(saturated, 10)); len(got) != 0 {
		t.Fatalf("decisions against a non-resizable engine: %v", got)
	}
}

func TestTraceCoarsensUnderPressureAndRestores(t *testing.T) {
	acts := &fakeActs{}
	c := New(testCfg(), testBoot(), acts.actuators(), nil)
	// Burn p99 long enough to tighten admission (pressure), then recover.
	sigs := append(repeat(burning, 4), repeat(healthy, 14)...)
	drive(t, c, sigs)
	if len(acts.traceNs) < 2 {
		t.Fatalf("trace actuator calls = %v, want coarsen then restore", acts.traceNs)
	}
	if acts.traceNs[0] != 800 {
		t.Fatalf("coarsened to %d, want 8x boot (800)", acts.traceNs[0])
	}
	if acts.traceNs[len(acts.traceNs)-1] != 100 {
		t.Fatalf("restored to %d, want boot 100", acts.traceNs[len(acts.traceNs)-1])
	}
}

func TestMemSoftWatermarkTightensAndRestores(t *testing.T) {
	acts := &fakeActs{}
	c := New(testCfg(), testBoot(), acts.actuators(), nil)
	sigs := append(repeat(memHard, 4), repeat(healthy, 14)...)
	drive(t, c, sigs)
	if len(acts.memPcts) < 2 {
		t.Fatalf("mem actuator calls = %v, want tighten then restore", acts.memPcts)
	}
	if acts.memPcts[0] != 50 || acts.memPcts[len(acts.memPcts)-1] != 75 {
		t.Fatalf("mem soft pct calls = %v, want 50 then 75", acts.memPcts)
	}
}

func TestEveryDecisionReachesFlightRecorder(t *testing.T) {
	fr := trace.NewFlight(64, "")
	acts := &fakeActs{}
	c := New(testCfg(), testBoot(), acts.actuators(), fr)
	ds := drive(t, c, append(repeat(saturated, 3), repeat(burning, 3)...))
	if len(ds) == 0 {
		t.Fatal("no decisions")
	}
	var ctl int
	for _, ev := range fr.Snapshot() {
		if ev.Component == "control" && ev.Kind == "ctl_decision" {
			ctl++
		}
	}
	if ctl != len(ds) {
		t.Fatalf("flight recorder has %d ctl_decision events, want %d", ctl, len(ds))
	}
}

func TestDisabledAndNilControllerAreInert(t *testing.T) {
	var nilC *Controller
	if got := nilC.Step(time.Now(), saturated); got != nil {
		t.Fatal("nil controller acted")
	}
	acts := &fakeActs{}
	cfg := testCfg()
	cfg.Enabled = false
	c := New(cfg, testBoot(), acts.actuators(), nil)
	if got := drive(t, c, repeat(saturated, 10)); len(got) != 0 {
		t.Fatal("disabled controller acted")
	}
}
