// Controller integration: once per sampler epoch the server condenses its
// live telemetry into a control.Signals snapshot and lets the controller
// act through the atomic knobs (admission level, trace sampling, soft
// memory watermark) and the resize marshalling slot the ingest loop
// drains. /controlz exposes the loop to operators: GET returns the policy
// and the recent decision ring, POST freezes/unfreezes the loop or applies
// a manual override (overrides work while frozen — freeze means "stop the
// automation", not "stop the operator").
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"oij/internal/control"
	"oij/internal/metrics"
	"oij/internal/obs"
)

// activeJoiners returns the engine's live active joiner count (the routing
// target set), or the full pool for engines without a resize path.
func (s *Server) activeJoiners() int {
	if s.rz != nil {
		return s.rz.ActiveJoiners()
	}
	return s.cfg.Engine.Joiners
}

// controlSignals condenses one epoch into the controller's input vector.
// Utilization and load dispersion are computed over the *active* joiner
// prefix: a deactivated joiner idling at zero must not drag the mean down
// and retrigger a scale-up the controller just undid.
func (s *Server) controlSignals(now time.Time, epoch uint64) control.Signals {
	active := s.activeJoiners()
	sig := control.Signals{
		Epoch:         epoch,
		ActiveJoiners: active,
		MemLevel:      int(s.memLevel.Load()),
	}

	utils := s.o.util.Values()
	if active > len(utils) {
		active = len(utils)
	}
	var sum float64
	for _, u := range utils[:active] {
		sum += u
		if u > sig.MaxUtil {
			sig.MaxUtil = u
		}
	}
	if active > 0 {
		sig.MeanUtil = sum / float64(active)
	}

	loads := s.eng.Stats().Loads()
	if active <= len(loads) {
		loads = loads[:active]
	}
	sig.Unbalancedness = metrics.Unbalancedness(loads)

	sig.QueueFrac = float64(s.funnel.Len()) / float64(s.funnel.Cap())
	_, _, lag := s.watermarkLag()
	sig.WatermarkLagS = float64(lag) / 1e6

	window := s.cfg.SLOWindow
	if avg, _, ok := s.o.timeline.WindowStats("oij_request_latency_seconds:p99", window, now); ok {
		sig.P99 = time.Duration(avg * float64(time.Second))
	}
	for _, name := range sloShedSeries {
		if avg, _, ok := s.o.timeline.WindowStats(name, window, now); ok {
			sig.ShedRate += avg
		}
	}
	return sig
}

// controllerStep runs one controller epoch. Sampler goroutine only; a nil
// or disabled controller makes this a no-op.
func (s *Server) controllerStep(now time.Time, epoch uint64) {
	if s.ctl == nil {
		return
	}
	s.ctl.Step(now, s.controlSignals(now, epoch))
}

// controlzDoc is the GET /controlz document.
type controlzDoc struct {
	Enabled bool              `json:"enabled"`
	Active  int               `json:"active_joiners"`
	Pool    int               `json:"pool_joiners"`
	State   *control.Snapshot `json:"state,omitempty"`
}

// serveControlz exposes the controller. GET returns policy, live knob
// values, and the recent decision ring. POST mutates:
//
//	POST /controlz?action=freeze      — suspend automatic decisions
//	POST /controlz?action=unfreeze    — resume automatic decisions
//	POST /controlz?actuator=joiners&value=3  — manual override (also:
//	  admission, trace_sample_n, mem_soft_pct); applies even while frozen
func (s *Server) serveControlz(w http.ResponseWriter, r *http.Request) {
	if s.ctl == nil {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(controlzDoc{
			Enabled: false,
			Active:  s.activeJoiners(),
			Pool:    s.cfg.Engine.Joiners,
		})
		return
	}
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		if err := s.controlzPost(r); err != nil {
			obs.JSONError(w, err.Error(), http.StatusBadRequest)
			return
		}
	default:
		obs.JSONError(w, fmt.Sprintf("method %s not allowed", r.Method), http.StatusMethodNotAllowed)
		return
	}
	snap := s.ctl.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(controlzDoc{
		Enabled: true,
		Active:  s.activeJoiners(),
		Pool:    s.cfg.Engine.Joiners,
		State:   &snap,
	})
}

// controlzPost applies one POST mutation: a freeze toggle or an override.
func (s *Server) controlzPost(r *http.Request) error {
	q := r.URL.Query()
	now := time.Now()
	switch action := q.Get("action"); action {
	case "freeze":
		s.ctl.SetFrozen(now, true)
		return nil
	case "unfreeze":
		s.ctl.SetFrozen(now, false)
		return nil
	case "":
	default:
		return fmt.Errorf("unknown action %q (want freeze or unfreeze)", action)
	}
	actuator := q.Get("actuator")
	if actuator == "" {
		return fmt.Errorf("POST needs action=freeze|unfreeze or actuator=...&value=...")
	}
	v, err := strconv.Atoi(q.Get("value"))
	if err != nil {
		return fmt.Errorf("bad value %q: %v", q.Get("value"), err)
	}
	_, err = s.ctl.Override(now, actuator, v)
	return err
}
