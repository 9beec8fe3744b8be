package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"oij/internal/agg"
	"oij/internal/refjoin"
	"oij/internal/tuple"
	"oij/internal/wire"
)

// TestProbesInWindow compares the checker's window lookup with a scan over
// every stream index that can hold a matching probe, across lap
// boundaries and for disorder wider than a lap (wide).
func TestProbesInWindow(t *testing.T) {
	for _, w := range workloads[:3] {
		s, err := newStream(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.indexProbes()
		win := s.window()
		usPer := 1e6 / s.cfg.EventRate
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20; i++ {
			g := len(s.block) - 50_000 + rng.Intn(2*len(s.block))
			r := s.at(g)
			lo, hi := win.Bounds(r.ts)
			var got, want []int
			s.probesInWindow(r.key, lo, hi, func(pg int) { got = append(got, pg) })
			from := max(int(float64(lo)/usPer)-2, 0)
			to := int(float64(hi+s.cfg.Disorder)/usPer) + 2
			for pg := from; pg <= to; pg++ {
				if p := s.at(pg); !p.base && p.key == r.key && p.ts >= lo && p.ts <= hi {
					want = append(want, pg)
				}
			}
			sort.Ints(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: g=%d: got %d probes, want %d", w.name, g, len(got), len(want))
			}
		}
	}
}

// TestCheckerCountsCorruptAnswers feeds the checker the correct answer to
// every request except a few deliberately broken ones, and requires each
// to be counted as exactly one failure of its kind.
func TestCheckerCountsCorruptAnswers(t *testing.T) {
	s, err := newStream(workloads[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	s.indexProbes()
	ss := newSession(s, plan{prefill: 20_000}, 1, false)
	ss.nextID = len(ss.reqG)
	const wrongKey, overCount, duplicate, unanswered = 5, 64, 7, 9
	var gs []int
	for id := 0; id < ss.nextID; id++ {
		if id == unanswered {
			continue
		}
		g := int(ss.reqG[id])
		var buf []tuple.Tuple
		gs, buf = oracleInput(s, g, gs, buf)
		want := refjoin.Arrival(buf, s.window(), agg.Sum)[0]
		r := wire.Result{Seq: uint64(id), TS: want.BaseTS, Key: want.Key, Agg: want.Agg, Matches: want.Matches}
		switch id {
		case wrongKey:
			r.Key++
		case overCount:
			r.Matches = refjoin.EventTime(buf, s.window(), agg.Sum)[0].Matches + 1
		}
		ss.onResult(r, 1)
		if id == duplicate {
			ss.onResult(r, 1)
		}
	}
	var res e2eResult
	res.check(ss)
	want := failCounts{mismatch: 1, oracle: 1, duplicate: 1, missing: 1}
	if res.fails != want {
		t.Fatalf("failures %s, want %s", res.fails, want)
	}
	if res.staleRatio == 0 {
		t.Fatalf("the over-counted answer should also differ from the arrival oracle")
	}
}

// TestShortRun runs every workload end to end with tracing and layer
// replays at a small scale against a freshly built oijd, and checks the
// output against BENCHMARK.json and the pinned input fingerprints.
func TestShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs oijd")
	}
	o := defaultOptions()
	o.trace = true
	o.out = t.TempDir()
	o.seconds = 1
	o.settle = time.Second / 2
	o.setups = 2
	o.prefillMin = 20_000
	o.prefillRet = 0.05
	o.satTuples = 50_000
	o.idle = 200 * time.Millisecond
	o.engineIdle = 200 * time.Millisecond
	o.replayN = 20_000
	o.exactN = 5_000
	o.queueItems = 100_000
	var stdout, stderr bytes.Buffer
	if code := run(o, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	var pins map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		t.Fatal(err)
	}

	printed := map[string]map[string]bool{}
	fingerprints := map[string]string{}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Text()
		last = line
		f := strings.Fields(line)
		if strings.HasPrefix(line, "#") {
			// # <workload> inputs <preset> seed <n> fingerprint <hex> ...
			if len(f) >= 8 && f[2] == "inputs" && f[6] == "fingerprint" {
				fingerprints[f[1]] = f[7]
			}
			continue
		}
		if strings.HasPrefix(line, "{") {
			continue
		}
		if len(f) != 4 {
			t.Errorf("malformed metric line %q", line)
			continue
		}
		unit, ok := units[f[1]]
		if !ok {
			t.Errorf("metric %s is not named in BENCHMARK.json", f[1])
		} else if unit != f[3] {
			t.Errorf("metric %s printed in %s, BENCHMARK.json says %s", f[1], f[3], unit)
		}
		if v, err := strconv.ParseFloat(f[2], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s has value %q", f[1], f[2])
		}
		if printed[f[0]] == nil {
			printed[f[0]] = map[string]bool{}
		}
		printed[f[0]][f[1]] = true
	}
	for _, w := range workloads {
		if fingerprints[w.name] != pins[w.name] {
			t.Errorf("%s: fingerprint %q, pinned %q", w.name, fingerprints[w.name], pins[w.name])
		}
		for name := range units {
			if !printed[w.name][name] {
				t.Errorf("%s: metric %s not printed", w.name, name)
			}
		}
		if _, err := os.Stat(o.out + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	var sum resultJSON
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		t.Fatalf("last line is not the summary: %q: %v", last, err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
		t.Errorf("summary: correct=%v attempted=%d failed=%d (error_ratio must be 0)", sum.Correct, sum.Attempted, sum.Failed)
	}
}
