package federation

import (
	"errors"
	"sort"
	"sync"
	"time"

	"distauction/internal/core"
	"distauction/internal/gateway"
	"distauction/internal/market"
	"distauction/internal/metrics"
	"distauction/internal/trace"
	"distauction/internal/wire"
)

// Settler coordinates round-atomic settlement across shards. Auctions that
// settle together form a settle group; when every member of a group has
// emitted its outcome for a round, the settler runs a two-phase commit over
// the members' enforcement targets: Prepare fences each non-⊥ outcome's
// payments on the ledger and creates its gateway reservations, then —
// only if every Prepare succeeded — Commit finalises them all; any Prepare
// failure Aborts everything already staged. So a user who won resources on
// two shards in the same round either pays and holds reservations on both,
// or on neither: supply conservation and pay-iff-allocated hold across
// shard boundaries even when the user can only afford one of the wins.
//
// ⊥ outcomes pay nothing by definition; a group member whose round aborted
// simply contributes nothing to that round's batch, and the remaining
// members still settle atomically among themselves.
type Settler struct {
	mu     sync.Mutex
	groups map[string]*settleGroup

	commits metrics.Counter // rounds fully committed
	aborts  metrics.Counter // rounds aborted and released on every shard

	// latency is the always-on settle-latency histogram: barrier release to
	// two-phase completion, in nanoseconds, per settled round.
	latency metrics.Histogram
}

// settleGroup is one named atomic-settlement domain.
type settleGroup struct {
	members map[string]*settleMember // by auction name
	pending map[uint64]*pendingRound // by round
}

// settleMember is one auction's enforcement leg within a group.
type settleMember struct {
	enforcer  *gateway.Enforcer
	users     []wire.NodeID
	providers []wire.NodeID
}

// pendingRound accumulates one round's outcomes until the group is
// complete.
type pendingRound struct {
	outcomes map[string]core.RoundOutcome
}

// NewSettler creates an empty settler.
func NewSettler() *Settler {
	return &Settler{groups: make(map[string]*settleGroup)}
}

// AddMember registers an auction in a settle group with its enforcement
// target and account lists. Outcomes observed for the auction then count
// toward the group's per-round barrier.
func (s *Settler) AddMember(group, auction string, target market.EnforceTarget, users, providers []wire.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.groups[group]
	if g == nil {
		g = &settleGroup{
			members: make(map[string]*settleMember),
			pending: make(map[uint64]*pendingRound),
		}
		s.groups[group] = g
	}
	g.members[auction] = &settleMember{
		enforcer: &gateway.Enforcer{
			Ledger:   target.Ledger,
			Gateways: target.Gateways,
			Escrow:   target.Escrow,
			TTL:      target.TTL,
		},
		users:     append([]wire.NodeID(nil), users...),
		providers: append([]wire.NodeID(nil), providers...),
	}
}

// RemoveMember drops an auction from its group (a drained or closed
// auction stops gating the group's rounds). Outcomes it already reported
// for pending rounds are pruned — the closed auction contributes nothing
// to them — and any round that now holds every remaining member's outcome
// settles here, since no further Observe would complete it.
func (s *Settler) RemoveMember(group, auction string) error {
	s.mu.Lock()
	g := s.groups[group]
	if g == nil {
		s.mu.Unlock()
		return nil
	}
	delete(g.members, auction)
	if len(g.members) == 0 {
		delete(s.groups, group)
		s.mu.Unlock()
		return nil
	}
	var ready []uint64
	for round, p := range g.pending {
		delete(p.outcomes, auction)
		switch {
		case len(p.outcomes) == 0:
			delete(g.pending, round)
		case len(p.outcomes) >= len(g.members):
			ready = append(ready, round)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	batches := make([][]settleLeg, len(ready))
	for i, round := range ready {
		batches[i] = g.takeLocked(round)
	}
	s.mu.Unlock()
	var errs []error
	for i, round := range ready {
		if err := s.settle(round, batches[i]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// settleLeg is one member's non-⊥ outcome within a complete round.
type settleLeg struct {
	name   string
	member *settleMember
	out    core.RoundOutcome
}

// takeLocked removes a complete round from the pending set and returns its
// non-⊥ legs. Caller holds s.mu.
func (g *settleGroup) takeLocked(round uint64) []settleLeg {
	p := g.pending[round]
	delete(g.pending, round)
	legs := make([]settleLeg, 0, len(p.outcomes))
	for name, o := range p.outcomes {
		if o.Err != nil {
			continue // ⊥ pays nothing and reserves nothing
		}
		legs = append(legs, settleLeg{name, g.members[name], o})
	}
	return legs
}

// Observe feeds one auction's round outcome into its group. When the
// outcome completes its round's set — every member has reported — the
// round settles two-phase and Observe returns the result; incomplete
// rounds return nil immediately. It runs on the observing auction's
// outcome path, so at most one round settles at a time per call chain and
// enforcement latency backpressures that auction exactly as single-shard
// enforcement does.
func (s *Settler) Observe(group, auction string, out core.RoundOutcome) error {
	s.mu.Lock()
	g := s.groups[group]
	if g == nil || g.members[auction] == nil {
		s.mu.Unlock()
		return nil
	}
	p := g.pending[out.Round]
	if p == nil {
		p = &pendingRound{outcomes: make(map[string]core.RoundOutcome, len(g.members))}
		g.pending[out.Round] = p
	}
	p.outcomes[auction] = out
	if len(p.outcomes) < len(g.members) {
		s.mu.Unlock()
		return nil
	}
	// Snapshot the legs so the two-phase runs without the settler lock
	// (ledger and gateways have their own locking).
	legs := g.takeLocked(out.Round)
	s.mu.Unlock()
	return s.settle(out.Round, legs)
}

// settle runs one complete round's two-phase settlement over its legs.
func (s *Settler) settle(round uint64, legs []settleLeg) error {
	if len(legs) == 0 {
		return nil // the whole round was ⊥: nothing to settle
	}
	// Deterministic prepare order keeps runs reproducible and the journal
	// stable for replay-equality assertions.
	sort.Slice(legs, func(i, j int) bool { return legs[i].name < legs[j].name })
	began := time.Now()
	span := trace.Begin()
	prepared := make([]*gateway.Prepared, 0, len(legs))
	for _, l := range legs {
		p, err := l.member.enforcer.Prepare(round, l.out.Outcome, l.member.users, l.member.providers)
		if err != nil {
			trace.Span(span, trace.PhaseSettleReserve, round, 0, 0, trace.NoPeer, int32(len(prepared)))
			span = trace.Begin()
			for _, staged := range prepared {
				_ = staged.Abort()
			}
			trace.Span(span, trace.PhaseSettleRelease, round, 0, 0, trace.NoPeer, int32(len(prepared)))
			s.aborts.Inc()
			s.latency.RecordDuration(time.Since(began))
			return err
		}
		prepared = append(prepared, p)
	}
	trace.Span(span, trace.PhaseSettleReserve, round, 0, 0, trace.NoPeer, int32(len(prepared)))
	span = trace.Begin()
	var errs []error
	for _, staged := range prepared {
		if err := staged.Commit(); err != nil {
			errs = append(errs, err)
		}
	}
	trace.Span(span, trace.PhaseSettleCommit, round, 0, 0, trace.NoPeer, int32(len(prepared)))
	s.latency.RecordDuration(time.Since(began))
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	s.commits.Inc()
	return nil
}

// Commits returns the number of rounds settled across all groups.
func (s *Settler) Commits() int64 { return s.commits.Load() }

// Aborts returns the number of rounds aborted (all staged legs released).
func (s *Settler) Aborts() int64 { return s.aborts.Load() }

// Latency returns the settle-latency histogram: nanoseconds from the
// round's barrier release to two-phase completion, commit or abort alike.
func (s *Settler) Latency() metrics.HistogramSnapshot { return s.latency.Snapshot() }
