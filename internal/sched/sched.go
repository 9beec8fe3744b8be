// Package sched implements the paper's dynamic balanced schedule (§V-B,
// Algorithm 3): the mapping from key-hash partitions to *virtual teams* of
// joiners, the workload estimate of Equation (3), and the greedy
// replicate-hottest-partition-to-coldest-joiner heuristic that minimizes
// unbalancedness (Equation 2) without migrating any data — ownership of a
// partition is only ever shared, never transferred, so tuples already in
// flight under the old schedule always land on a joiner that is still a
// team member under the new one.
package sched

import (
	"fmt"
	"sort"
	"sync/atomic"

	"oij/internal/metrics"
)

// MaxJoiners bounds the joiner count so read sets fit in one 64-bit mask.
const MaxJoiners = 64

// Schedule maps each partition to its virtual team (the route set of
// joiners receiving its tuples). Schedules are immutable once built; the
// driver swaps in a new one atomically.
type Schedule struct {
	// Teams[p] lists the joiners in partition p's virtual team. The
	// partition's home joiner (p mod J) is always a member, so a
	// schedule degenerates gracefully to the static key partition.
	Teams [][]int
	// rr holds per-partition round-robin cursors for routing; owned by
	// the single driver goroutine.
	rr []uint32
}

// NewStatic builds the initial schedule: every partition owned solely by
// its home joiner, which is exactly Key-OIJ's static partitioning.
func NewStatic(partitions, joiners int) *Schedule {
	s := &Schedule{Teams: make([][]int, partitions), rr: make([]uint32, partitions)}
	for p := range s.Teams {
		s.Teams[p] = []int{p % joiners}
	}
	return s
}

// Route picks the next team member for partition p (round-robin, so the
// partition's tuples spread evenly over its virtual team). Driver-only.
func (s *Schedule) Route(p int) int {
	team := s.Teams[p]
	if len(team) == 1 {
		return team[0]
	}
	i := s.rr[p]
	s.rr[p] = i + 1
	return team[int(i)%len(team)]
}

// TeamMask returns partition p's team as a bitmask.
func (s *Schedule) TeamMask(p int) uint64 {
	var m uint64
	for _, j := range s.Teams[p] {
		m |= 1 << uint(j)
	}
	return m
}

// clone copies the team structure (sharing member slices is unsafe because
// rebalancing appends).
func (s *Schedule) clone() *Schedule {
	n := &Schedule{Teams: make([][]int, len(s.Teams)), rr: make([]uint32, len(s.rr))}
	copy(n.rr, s.rr)
	for p, t := range s.Teams {
		n.Teams[p] = append([]int(nil), t...)
	}
	return n
}

// has reports whether joiner j is in partition p's team.
func (s *Schedule) has(p, j int) bool {
	for _, m := range s.Teams[p] {
		if m == j {
			return true
		}
	}
	return false
}

// Workloads evaluates Equation (3): each joiner's estimated load is the sum
// over its partitions of that partition's tuple count divided by the team
// size (team members share a partition's tuples evenly thanks to the
// round-robin routing).
func (s *Schedule) Workloads(counts []float64, joiners int) []float64 {
	w := make([]float64, joiners)
	for p, team := range s.Teams {
		share := counts[p] / float64(len(team))
		for _, j := range team {
			w[j] += share
		}
	}
	return w
}

// Config tunes the rebalancer.
type Config struct {
	// Partitions is the number of key-hash buckets (default 256).
	Partitions int
	// Delta is Algorithm 3's δ: the minimum unbalancedness improvement
	// for accepting a replication step (default 0.01).
	Delta float64
	// Decay is Algorithm 3's λ: the factor applied to the per-partition
	// statistics after each schedule pass (default 0.5), so the
	// scheduler tracks shifting hot sets (Fig. 14).
	Decay float64
	// MaxTeam bounds virtual-team size; 0 means up to all joiners.
	MaxTeam int
	// ShrinkFraction: a partition whose decayed count falls below this
	// fraction of the mean partition count has its team reset to the
	// home joiner, so cold partitions stop paying multi-index read
	// costs. 0 disables shrinking.
	ShrinkFraction float64
	// Topology assigns each joiner to a NUMA node (Topology[j] = node
	// id); nil means a flat machine. When set, the balancer biases
	// replication toward joiners on the same node as a partition's home
	// joiner, so virtual-team reads stay node-local — the paper's
	// "NUMA-aware dynamic scheduling" future-work item. The bias is
	// CrossNodePenalty; balance still wins when the skew is large
	// enough.
	Topology []int
	// CrossNodePenalty plays two roles when Topology is set: replication
	// targets off the home node are handicapped by this fraction of the
	// mean joiner load when choosing where to replicate, and a
	// cross-node replication is only accepted if it improves
	// unbalancedness by at least this much (same-node steps need only
	// Delta). Balance therefore still wins across nodes, but only when
	// the skew is worth the remote-read traffic (default 0.25).
	CrossNodePenalty float64
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Partitions <= 0 {
		c.Partitions = 256
	}
	if c.Delta <= 0 {
		c.Delta = 0.01
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = 0.5
	}
	if c.ShrinkFraction < 0 {
		c.ShrinkFraction = 0
	}
	if c.CrossNodePenalty <= 0 {
		c.CrossNodePenalty = 0.25
	}
	return c
}

// Balancer owns the per-partition statistics and produces new schedules.
// It runs on the driver goroutine.
type Balancer struct {
	cfg     Config
	joiners int
	// Counts[p] is the (decayed) number of tuples recently routed to
	// partition p; the driver increments it per tuple.
	Counts []float64
	// Reschedules counts accepted schedule changes. Atomic so the live
	// observability layer can read it while the driver rebalances.
	Reschedules atomic.Int64
}

// NewBalancer creates a Balancer for the given joiner count.
func NewBalancer(cfg Config, joiners int) (*Balancer, error) {
	cfg = cfg.WithDefaults()
	if joiners > MaxJoiners {
		return nil, fmt.Errorf("sched: %d joiners exceeds the %d-joiner mask limit", joiners, MaxJoiners)
	}
	if cfg.Topology != nil && len(cfg.Topology) != joiners {
		return nil, fmt.Errorf("sched: topology describes %d joiners, have %d", len(cfg.Topology), joiners)
	}
	return &Balancer{cfg: cfg, joiners: joiners, Counts: make([]float64, cfg.Partitions)}, nil
}

// nodeOf returns joiner j's NUMA node (0 on a flat machine).
func (b *Balancer) nodeOf(j int) int {
	if b.cfg.Topology == nil {
		return 0
	}
	return b.cfg.Topology[j]
}

// Partitions returns the number of hash buckets.
func (b *Balancer) Partitions() int { return b.cfg.Partitions }

// Rebalance runs Algorithm 3 against the current schedule and statistics
// and returns the new schedule (which may be the input schedule unchanged)
// plus whether it changed. The statistics are decayed afterwards
// (Algorithm 3 line 13).
func (b *Balancer) Rebalance(cur *Schedule) (*Schedule, bool) {
	s := cur.clone()
	changed := false
	maxTeam := b.cfg.MaxTeam
	if maxTeam <= 0 || maxTeam > b.joiners {
		maxTeam = b.joiners
	}

	// Shrink cold partitions back to their home joiner before growing
	// hot ones, so team growth under rotating hot sets does not
	// accumulate forever.
	if b.cfg.ShrinkFraction > 0 {
		var total float64
		for _, c := range b.Counts {
			total += c
		}
		mean := total / float64(len(b.Counts))
		for p, team := range s.Teams {
			if len(team) > 1 && b.Counts[p] < mean*b.cfg.ShrinkFraction {
				s.Teams[p] = []int{p % b.joiners}
				changed = true
			}
		}
	}

	lastUnb := metrics.Unbalancedness(s.Workloads(b.Counts, b.joiners))
	// The outer loop mirrors Algorithm 3's "while true": each round moves
	// one partition replica from the hottest joiner to the coldest. It
	// terminates because every accepted step strictly decreases
	// unbalancedness by at least δ and team growth is bounded.
	for iter := 0; iter < 4*b.joiners; iter++ {
		w := s.Workloads(b.Counts, b.joiners)
		jMax := argMax(w)
		var mean float64
		for _, v := range w {
			mean += v
		}
		mean /= float64(len(w))

		// Priority queue of J_max's partitions by per-member share,
		// hottest first (Algorithm 3 line 5).
		type cand struct {
			p     int
			share float64
		}
		var cands []cand
		for p, team := range s.Teams {
			if s.has(p, jMax) && len(team) < maxTeam {
				cands = append(cands, cand{p, b.Counts[p] / float64(len(team))})
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].share > cands[j].share })

		accepted := false
		for _, c := range cands {
			// Replication target: the least-loaded joiner not yet
			// in the team, handicapping off-node joiners so team
			// reads stay NUMA-local when the machine has nodes —
			// a large enough imbalance still overcomes the
			// penalty, restoring pure Algorithm-3 behaviour.
			homeNode := b.nodeOf(c.p % b.joiners)
			target, best := -1, 0.0
			for j := 0; j < b.joiners; j++ {
				if j == jMax || s.has(c.p, j) {
					continue
				}
				eff := w[j]
				if b.nodeOf(j) != homeNode {
					eff += b.cfg.CrossNodePenalty * mean
				}
				if target < 0 || eff < best {
					target, best = j, eff
				}
			}
			if target < 0 {
				continue
			}
			required := b.cfg.Delta
			if b.cfg.Topology != nil && b.nodeOf(target) != homeNode && b.cfg.CrossNodePenalty > required {
				required = b.cfg.CrossNodePenalty
			}
			s.Teams[c.p] = append(s.Teams[c.p], target)
			unb := metrics.Unbalancedness(s.Workloads(b.Counts, b.joiners))
			if lastUnb-unb > required {
				lastUnb = unb
				accepted = true
				changed = true
				break
			}
			// Revert the trial replication (Algorithm 3 pops the
			// queue and tries the next partition).
			s.Teams[c.p] = s.Teams[c.p][:len(s.Teams[c.p])-1]
		}
		if !accepted {
			// No replication improves the schedule: line 11-12.
			break
		}
	}

	// Decay statistics (line 13) so the balancer follows drift.
	for p := range b.Counts {
		b.Counts[p] *= b.cfg.Decay
	}

	if !changed {
		return cur, false
	}
	b.Reschedules.Add(1)
	return s, true
}

func argMax(w []float64) int { return bestIndex(w, true) }

func argMin(w []float64) int { return bestIndex(w, false) }

// bestIndex returns the index of the maximum (max=true) or minimum value.
func bestIndex(w []float64, max bool) int {
	best := 0
	for i, v := range w {
		if (max && v > w[best]) || (!max && v < w[best]) {
			best = i
		}
	}
	return best
}

// CrossNodeShare evaluates a schedule against a topology: the fraction of
// routed load that lands on a joiner outside its partition's home NUMA
// node (0 on a flat machine). Lower means more node-local team reads.
func CrossNodeShare(s *Schedule, counts []float64, topology []int, joiners int) float64 {
	if topology == nil {
		return 0
	}
	var total, cross float64
	for p, team := range s.Teams {
		if counts[p] == 0 {
			continue
		}
		homeNode := topology[p%joiners]
		off := 0
		for _, m := range team {
			if topology[m] != homeNode {
				off++
			}
		}
		total += counts[p]
		cross += counts[p] * float64(off) / float64(len(team))
	}
	if total == 0 {
		return 0
	}
	return cross / total
}
