package chaos_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oij/internal/agg"
	"oij/internal/chaos"
	"oij/internal/control"
	"oij/internal/engine"
	"oij/internal/refjoin"
	"oij/internal/server"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/window"
)

// controlzState is the subset of the /controlz document these tests read.
type controlzState struct {
	Enabled bool `json:"enabled"`
	Active  int  `json:"active_joiners"`
	State   *struct {
		Frozen     bool               `json:"frozen"`
		Joiners    int                `json:"joiners"`
		Applied    uint64             `json:"applied_decisions"`
		Suppressed uint64             `json:"suppressed_decisions"`
		Decisions  []control.Decision `json:"decisions"`
	} `json:"state"`
}

func getControlz(t *testing.T, base string) controlzState {
	t.Helper()
	var doc controlzState
	if err := json.Unmarshal([]byte(httpGet(t, base+"/controlz")), &doc); err != nil {
		t.Fatalf("controlz decode: %v", err)
	}
	return doc
}

func postControlz(t *testing.T, base, query string) {
	t.Helper()
	resp, err := http.Post(base+"/controlz?"+query, "", nil)
	if err != nil {
		t.Fatalf("POST /controlz?%s: %v", query, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /controlz?%s: status %d", query, resp.StatusCode)
	}
}

// TestSoakControllerDecisionsBounded runs the adaptive controller through a
// degraded network (latency, partial writes, stalls) with a bursty fleet,
// while /controlz is scraped and driven (freeze, unfreeze, manual resizes)
// concurrently. It asserts the controller's operational envelope: the
// applied-decision rate stays inside the MaxDecisionsPerMin budget, every
// decision (automatic or manual) lands in the flight recorder in sequence
// order, the endpoint stays readable through the faults, and the server
// still answers correctly once the dust settles.
func TestSoakControllerDecisionsBounded(t *testing.T) {
	clients, rounds := 6, 20
	if testing.Short() {
		clients, rounds = 3, 8
	}

	cfg := server.Config{
		Admission:       server.AdmissionShedProbes,
		RequestDeadline: 5 * time.Second,
		MemCapProbes:    10_000,
		AdminAddr:       "127.0.0.1:0",
		FlightRing:      4096,
		UtilEpoch:       20 * time.Millisecond,
		Engine: engine.Config{
			Joiners: 1,
			Window:  window.Spec{Pre: 10_000_000, Lateness: 10_000},
			Agg:     agg.Sum,
		},
		Control: control.Config{
			Enabled:    true,
			MaxJoiners: 4,
		},
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	proxy, err := chaos.Listen(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetLatency(1*time.Millisecond, 2*time.Millisecond)
	proxy.SetChunk(9)
	proxy.SetStall(128, 5*time.Millisecond)

	adminBase := fmt.Sprintf("http://%s", s.AdminAddr())
	start := time.Now()

	// Concurrent operator: scrape /controlz continuously and issue manual
	// actions mid-soak — exactly the traffic an incident produces.
	var overrides, freezes int64
	opStop := make(chan struct{})
	var opWG sync.WaitGroup
	opWG.Add(1)
	go func() {
		defer opWG.Done()
		i := 0
		for {
			select {
			case <-opStop:
				return
			default:
			}
			doc := getControlz(t, adminBase)
			if !doc.Enabled || doc.State == nil {
				t.Errorf("controlz dead mid-soak: %+v", doc)
				return
			}
			switch i {
			case 3:
				postControlz(t, adminBase, "action=freeze")
				atomic.AddInt64(&freezes, 1)
			case 6:
				postControlz(t, adminBase, "actuator=joiners&value=3")
				atomic.AddInt64(&overrides, 1)
			case 9:
				postControlz(t, adminBase, "action=unfreeze")
				atomic.AddInt64(&freezes, 1)
			case 12:
				postControlz(t, adminBase, "actuator=joiners&value=1")
				atomic.AddInt64(&overrides, 1)
			}
			i++
			time.Sleep(20 * time.Millisecond)
		}
	}()

	var ts atomic.Int64
	ts.Store(1000)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rc := server.NewRetryClient(proxy.Addr(), server.DialOptions{
				DialTimeout:  2 * time.Second,
				ReadTimeout:  10 * time.Second,
				WriteTimeout: 5 * time.Second,
			})
			rc.MaxAttempts = 8
			defer rc.Close()
			for r := 0; r < rounds; r++ {
				_ = rc.Do(func(c *server.Client) error {
					base := ts.Add(100)
					for i := int64(0); i < 30; i++ {
						if err := c.SendProbe(uint64(id%5+1), base+i, 1); err != nil {
							return err
						}
					}
					if _, err := c.SendBase(uint64(id%5+1), base+60, 0); err != nil {
						return err
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					_, err := c.RecvResults(10 * time.Second)
					return err
				})
			}
		}(id)
	}
	wg.Wait()
	close(opStop)
	opWG.Wait()
	proxy.ClearFaults()

	// Budget: applied automatic decisions per minute must stay inside
	// control.MaxDecisionsPerMin. Manual overrides bypass the budget
	// and are excluded from the applied counter by design.
	doc := getControlz(t, adminBase)
	if doc.State == nil {
		t.Fatal("controlz state missing after soak")
	}
	elapsedMin := int(time.Since(start).Minutes()) + 1
	budget := control.MaxDecisionsPerMin
	if doc.State.Applied > uint64(budget*elapsedMin) {
		t.Errorf("applied decisions = %d over %d min, budget %d/min", doc.State.Applied, elapsedMin, budget)
	}

	// Every decision — automatic, manual, freeze — is a ctl_decision
	// flight event, and the recorder keeps them in sequence order.
	var fd trace.FlightDoc
	if err := json.Unmarshal([]byte(httpGet(t, adminBase+"/debug/flightrecorder")), &fd); err != nil {
		t.Fatalf("flight decode: %v", err)
	}
	var ctlEvents uint64
	var lastSeq uint64
	for _, ev := range fd.Events {
		if ev.Kind != "ctl_decision" {
			continue
		}
		ctlEvents++
		if ev.Seq <= lastSeq {
			t.Fatalf("ctl_decision events out of order: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}
	want := doc.State.Applied + uint64(atomic.LoadInt64(&overrides)) + uint64(atomic.LoadInt64(&freezes))
	if ctlEvents != want {
		t.Errorf("flight holds %d ctl_decision events, want %d (applied %d + overrides %d + freezes %d)",
			ctlEvents, want, doc.State.Applied, overrides, freezes)
	}

	// The manual resize decisions must be in the /controlz ring.
	manual := 0
	for _, d := range doc.State.Decisions {
		if d.Rule == "manual-override" && d.Actuator == "joiners" {
			manual++
		}
	}
	if manual < int(atomic.LoadInt64(&overrides)) {
		t.Errorf("controlz ring holds %d manual joiner overrides, issued %d", manual, overrides)
	}

	// Post-soak the server must still answer a clean round correctly.
	c, err := server.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := ts.Add(1000)
	for i := int64(0); i < 10; i++ {
		if err := c.SendProbe(7, base+i, 2); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := c.SendBase(7, base+20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	rs, err := c.RecvResults(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Seq != seq || rs[0].Agg != 20 {
		t.Fatalf("post-soak round = %+v, want seq %d agg 20", rs, seq)
	}
	t.Logf("controller soak: %d applied, %d suppressed, %d ctl flight events, active=%d",
		doc.State.Applied, doc.State.Suppressed, ctlEvents, doc.Active)
}

// TestControllerResizeDifferential proves live resizes are answer-preserving:
// a deterministic probe/base stream runs through a controller-enabled server
// while /controlz resizes the joiner team up and down mid-stream, and every
// answer must equal the refjoin arrival-semantics oracle exactly — same
// aggregate, same match count, for every base sequence number. Integer
// payloads make float ordering irrelevant, so equality is exact.
func TestControllerResizeDifferential(t *testing.T) {
	cfg := server.Config{
		AdminAddr: "127.0.0.1:0",
		Engine: engine.Config{
			Joiners: 1,
			Window:  window.Spec{Pre: 2_000_000, Lateness: 1000},
			Agg:     agg.Sum,
		},
		Control: control.Config{
			Enabled:    true,
			MaxJoiners: 4,
			// A huge latency target keeps the automatic admission rule
			// quiet: shedding would legitimately drop probes and the
			// oracle comparison below requires every tuple admitted.
			P99Target: time.Hour,
		},
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	adminBase := fmt.Sprintf("http://%s", s.AdminAddr())

	c, err := server.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Deterministic stream: 6 chunks of mixed traffic over 5 keys; before
	// each chunk the joiner team is resized through /controlz, so chunk
	// boundaries cross team widths 1→3→1→4→2→3 with buffered probe state
	// carried across every transition.
	rng := rand.New(rand.NewSource(20260808))
	targets := []int{3, 1, 4, 2, 3, 1}
	const perChunk = 500
	var oracle []tuple.Tuple
	var baseSeqs []uint64
	now := tuple.Time(1_000_000)
	for chunk, target := range targets {
		postControlz(t, adminBase, fmt.Sprintf("actuator=joiners&value=%d", target))
		for i := 0; i < perChunk; i++ {
			now += tuple.Time(rng.Intn(400) + 1)
			key := uint64(rng.Intn(5) + 1)
			if rng.Intn(4) == 0 {
				seq, err := c.SendBase(key, now, 0)
				if err != nil {
					t.Fatalf("chunk %d: %v", chunk, err)
				}
				baseSeqs = append(baseSeqs, seq)
				oracle = append(oracle, tuple.Tuple{TS: now, Key: key, Side: tuple.Base, Seq: seq})
			} else {
				val := float64(rng.Intn(1000))
				if err := c.SendProbe(key, now, val); err != nil {
					t.Fatalf("chunk %d: %v", chunk, err)
				}
				oracle = append(oracle, tuple.Tuple{TS: now, Key: key, Val: val, Side: tuple.Probe})
			}
			if i%97 == 0 {
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	rs, err := c.RecvResults(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(baseSeqs) {
		t.Fatalf("got %d results for %d bases", len(rs), len(baseSeqs))
	}

	want := refjoin.ByBaseSeq(refjoin.Arrival(oracle, cfg.Engine.Window, agg.Sum))
	mismatches := 0
	for _, r := range rs {
		w, ok := want[r.Seq]
		if !ok {
			t.Fatalf("result for unknown base seq %d", r.Seq)
		}
		if r.Agg != w.Agg || r.Matches != w.Matches {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("base seq %d: got agg=%v matches=%d, oracle agg=%v matches=%d",
					r.Seq, r.Agg, r.Matches, w.Agg, w.Matches)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d answers diverged from the oracle across resizes", mismatches, len(rs))
	}

	// The final resize must actually have landed (the ingest loop applies
	// pending targets on its heartbeat), proving the stream above really
	// crossed team-width changes rather than racing past them.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if doc := getControlz(t, adminBase); doc.Active == targets[len(targets)-1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("final resize to %d never applied", targets[len(targets)-1])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ctl := getControlz(t, adminBase); ctl.State != nil {
		manual := 0
		for _, d := range ctl.State.Decisions {
			if d.Rule == "manual-override" {
				manual++
			}
		}
		if manual < len(targets) {
			t.Errorf("decision ring holds %d manual overrides, want >= %d", manual, len(targets))
		}
	}
}
