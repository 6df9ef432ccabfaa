package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"distauction/internal/allocator"
	"distauction/internal/auction"
	"distauction/internal/coin"
	"distauction/internal/consensus"
	"distauction/internal/proto"
	"distauction/internal/taskgraph"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// MaxRawBidSize bounds a submitted bid's encoding. Anything larger is
// treated as no submission (the neutral bid takes its place).
const MaxRawBidSize = 64

// Config describes one auction deployment shared by all participants.
type Config struct {
	// Providers are the provider nodes that jointly simulate the auctioneer
	// (the m of the paper).
	Providers []wire.NodeID
	// Users are the user bidder nodes (the n of the paper), slot-aligned:
	// Users[i] is consensus slot i.
	Users []wire.NodeID
	// K is the coalition bound. The rational-consensus construction
	// requires m > 2K (§6).
	K int
	// Mechanism is the allocation algorithm A.
	Mechanism Mechanism
	// BidWindow is how long providers wait for bid submissions before
	// substituting neutral bids. Zero means 2 s.
	BidWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.BidWindow == 0 {
		c.BidWindow = 2 * time.Second
	}
	return c
}

// Validate checks the deployment facts.
func (c Config) Validate() error {
	m := len(c.Providers)
	if m == 0 {
		return fmt.Errorf("%w: no providers", ErrConfig)
	}
	if c.K < 0 {
		return fmt.Errorf("%w: negative k", ErrConfig)
	}
	if m <= 2*c.K {
		return fmt.Errorf("%w: m=%d providers cannot tolerate coalitions of k=%d (need m > 2k)", ErrConfig, m, c.K)
	}
	if c.Mechanism == nil {
		return fmt.Errorf("%w: no mechanism", ErrConfig)
	}
	if c.BidWindow < 0 {
		return fmt.Errorf("%w: negative bid window", ErrConfig)
	}
	seen := map[wire.NodeID]bool{}
	for _, id := range append(append([]wire.NodeID{}, c.Providers...), c.Users...) {
		if seen[id] {
			return fmt.Errorf("%w: duplicate node id %d", ErrConfig, id)
		}
		seen[id] = true
	}
	return nil
}

// slotCount returns the number of bid-agreement slots: one per user, plus
// one per provider when the mechanism is double-sided.
func (c Config) slotCount() int {
	n := len(c.Users)
	if c.Mechanism.DoubleSided() {
		n += len(c.Providers)
	}
	return n
}

// engine executes auction rounds for one provider node. It is the round
// engine shared by the session scheduler (the primary API) and the manual
// Provider.RunRound compatibility shim: both drive exactly the same phases
// over the same proto.Peer.
type engine struct {
	cfg  Config
	peer *proto.Peer

	// bidTimer is the reusable bid-window timer. Rounds open strictly one at
	// a time (the session scheduler serialises phases 0–1; the manual shim
	// runs rounds serially), so a single timer replaces a per-round
	// context.WithTimeout allocation on the hot path.
	bidTimer *time.Timer

	// graph and exec are the session-persistent execution plan, compiled
	// once when the mechanism implements GraphCompiler: the same
	// round-generic graph runs every round on a persistent worker set, with
	// the round's bids passed through the executor environment. Nil for
	// mechanisms without the extension (per-round BuildGraph fallback).
	graph *taskgraph.Graph
	exec  *taskgraph.Executor

	// bidsPool recycles the decoded per-round bid vectors the compiled path
	// hands to the executor; a vector returns to the pool when its round's
	// allocator run has fully joined.
	bidsPool sync.Pool

	mu        sync.Mutex
	delivered map[uint64]bool // live rounds whose result already went to bidders
	ended     uint64          // all rounds <= ended are reclaimed (and were delivered)
	// slotsFree recycles collectBids' per-round slot slices; a round's slots
	// are handed from openRound to finishRound and return here when the
	// round finishes (on every path).
	slotsFree [][][]byte
}

// compile builds the session-persistent plan when the mechanism supports
// it. depth is the pipeline depth (concurrent rounds); a compile error
// falls back to the per-round BuildGraph path, which reports it per round
// exactly as before.
func (e *engine) compile(depth int) {
	gc, ok := e.cfg.Mechanism.(GraphCompiler)
	if !ok {
		return
	}
	g, err := gc.CompileGraph(GraphConfig{Providers: e.peer.Providers(), K: e.cfg.K})
	if err != nil {
		return
	}
	e.graph = g
	e.exec = taskgraph.NewExecutor(e.peer, g, depth)
}

// close releases the engine's persistent resources (the executor's worker
// set and the bid-window timer). The peer is closed separately by the
// owning session or shim.
func (e *engine) close() {
	if e.exec != nil {
		e.exec.Close()
	}
	if e.bidTimer != nil {
		e.bidTimer.Stop()
	}
}

// newEngine validates cfg and wraps conn (which must belong to one of
// cfg.Providers).
func newEngine(conn transport.Conn, cfg Config) (*engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	found := false
	for _, id := range cfg.Providers {
		if id == conn.Self() {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: node %d is not a configured provider", ErrConfig, conn.Self())
	}
	return &engine{
		cfg:       cfg,
		peer:      proto.NewPeer(conn, cfg.Providers),
		delivered: make(map[uint64]bool),
	}, nil
}

// broadcastOwnBid performs phase 0 of a round: a provider that bids in a
// double-sided mechanism broadcasts its own bid like any bidder. nil means
// the neutral bid; single-sided mechanisms skip the phase entirely.
//
// Peers of a deployment open their sessions concurrently, and no transport
// can route to a node that has not attached yet — so a failed send is
// retried within the bid window (identical re-sends are absorbed by the
// receivers) before the round is declared dead.
func (e *engine) broadcastOwnBid(ctx context.Context, round uint64, ownBid *auction.ProviderBid) error {
	if !e.cfg.Mechanism.DoubleSided() {
		return nil
	}
	bid := auction.NeutralProviderBid()
	if ownBid != nil {
		bid = *ownBid
	}
	tag := wire.Tag{Round: round, Block: wire.BlockBidSubmit, Step: 1}
	deadline := time.Now().Add(e.cfg.BidWindow)
	// Capped jittered exponential backoff, one reusable timer, created only
	// when the first attempt fails — a fleet of providers retrying into the
	// same late attacher must not hammer it in lockstep.
	var bo *transport.Backoff
	for {
		err := e.peer.BroadcastProviders(tag, bid.Encode())
		if err == nil {
			if bo != nil {
				bo.Stop()
			}
			return nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			if bo != nil {
				bo.Stop()
			}
			return e.peer.FailRound(round, fmt.Sprintf("broadcast own bid: %v", err))
		}
		if bo == nil {
			bo = transport.NewBackoff(5*time.Millisecond, 100*time.Millisecond,
				int64(round)^time.Now().UnixNano())
		}
		// A cancelled wait falls through to one final attempt; the ctx check
		// above then reports the failure.
		_ = bo.Wait(ctx.Done())
	}
}

// openRound runs phases 0–1 of a round: own-bid broadcast, then bid
// collection over the bid window.
func (e *engine) openRound(ctx context.Context, round uint64, ownBid *auction.ProviderBid) ([][]byte, error) {
	if err := e.broadcastOwnBid(ctx, round, ownBid); err != nil {
		return nil, err
	}
	return e.collectBids(ctx, round)
}

// expiredC is a closed timer channel: ReceiveTimeout with it returns any
// buffered message immediately and DeadlineExceeded otherwise.
var expiredC = func() <-chan time.Time {
	ch := make(chan time.Time)
	close(ch)
	return ch
}()

// collectBids gathers the raw submission for every slot (phase 1),
// substituting nil (→ neutral) when the bid window expires first. The window
// is enforced with the engine's reusable timer: already-buffered submissions
// are still accepted after expiry (same as the former context deadline,
// which Receive also checked only after the buffer).
func (e *engine) collectBids(ctx context.Context, round uint64) ([][]byte, error) {
	cfg := e.cfg
	if e.bidTimer == nil {
		e.bidTimer = time.NewTimer(cfg.BidWindow)
	} else {
		e.bidTimer.Reset(cfg.BidWindow)
	}
	window := e.bidTimer.C
	expired := false

	slots := e.getSlots()
	tag := wire.Tag{Round: round, Block: wire.BlockBidSubmit, Step: 1}
	recvSlot := func(slot int, from wire.NodeID) error {
		raw, err := e.peer.ReceiveTimeout(ctx, tag, from, window)
		switch {
		case err == nil:
			if len(raw) <= MaxRawBidSize {
				slots[slot] = raw
			}
		case errors.Is(err, context.DeadlineExceeded):
			// No submission: neutral. The timer has fired (its channel is
			// consumed); later slots still drain buffered submissions via the
			// always-ready expiry channel.
			if !expired {
				expired = true
				window = expiredC
			}
		case errors.Is(err, proto.ErrAborted):
			return err
		default:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Equivocating bidders may have poisoned the round.
			if abortErr := e.peer.AbortErr(round); abortErr != nil {
				return abortErr
			}
			return err
		}
		return nil
	}
	for i, bidder := range cfg.Users {
		if err := recvSlot(i, bidder); err != nil {
			return nil, err
		}
	}
	if cfg.Mechanism.DoubleSided() {
		for j, prov := range cfg.Providers {
			if err := recvSlot(len(cfg.Users)+j, prov); err != nil {
				return nil, err
			}
		}
	}
	return slots, nil
}

// getSlots pops a recycled slot slice for collectBids (or allocates the
// first pipeline-depth-many); putSlots returns it once the round is done
// with the collected inputs.
func (e *engine) getSlots() [][]byte {
	n := e.cfg.slotCount()
	var s [][]byte
	e.mu.Lock()
	if k := len(e.slotsFree); k > 0 {
		s = e.slotsFree[k-1]
		e.slotsFree[k-1] = nil
		e.slotsFree = e.slotsFree[:k-1]
	}
	e.mu.Unlock()
	if cap(s) < n {
		return make([][]byte, n)
	}
	return s[:n]
}

func (e *engine) putSlots(s [][]byte) {
	if s == nil {
		return
	}
	clear(s) // drop the payload views before recycling
	e.mu.Lock()
	if len(e.slotsFree) < 8 {
		e.slotsFree = append(e.slotsFree, s)
	}
	e.mu.Unlock()
}

// getBids pops a recycled bid vector sized for the deployment. Every live
// slot is overwritten by finishRound's sanitize pass, so no cross-round
// values survive a pool cycle.
func (e *engine) getBids() *auction.BidVector {
	bv, _ := e.bidsPool.Get().(*auction.BidVector)
	if bv == nil {
		bv = &auction.BidVector{}
	}
	n := len(e.cfg.Users)
	if cap(bv.Users) < n {
		bv.Users = make([]auction.UserBid, n)
	} else {
		bv.Users = bv.Users[:n]
	}
	if e.cfg.Mechanism.DoubleSided() {
		m := len(e.cfg.Providers)
		if cap(bv.Providers) < m {
			bv.Providers = make([]auction.ProviderBid, m)
		} else {
			bv.Providers = bv.Providers[:m]
		}
	} else {
		bv.Providers = nil
	}
	return bv
}

// putBids recycles a bid vector once its round's allocator run has fully
// joined — nothing may retain the vector (or its slices) past that point.
func (e *engine) putBids(bv *auction.BidVector) { e.bidsPool.Put(bv) }

// finishRound runs phases 2–5 on the collected inputs: bid agreement, the
// allocator (validate + task graph), and outcome delivery to bidders. It
// owns inputs from here on: the slice returns to the slot pool when the
// round finishes, on every path.
func (e *engine) finishRound(ctx context.Context, round uint64, inputs [][]byte) (auction.Outcome, error) {
	cfg := e.cfg
	defer e.putSlots(inputs)

	// Coin prefetch: when the mechanism's draw schedule is static, start
	// the commit/echo phases of every instance now so they overlap bid
	// agreement; the reveals stay gated until agreement completes, so no
	// provider can know a seed while the agreed vector is still undecided.
	var coins *coin.Reservoir
	if planner, ok := cfg.Mechanism.(CoinPlanner); ok {
		if plan := planner.CoinPlan(GraphConfig{Providers: e.peer.Providers(), K: cfg.K}); len(plan) > 0 {
			coins = coin.NewReservoir(e.peer, round, true)
			coins.Prefetch(ctx, plan...)
			// Close joins every toss before the round can be reclaimed; on
			// abort paths it also opens the gate so blocked tosses unwind.
			defer coins.Close()
		}
	}

	// Phase 2: bid agreement (Property 1). The coin's reveal gate opens the
	// moment the agreement is *bound* (proposals and leader shares all
	// committed and echo-verified): from there reveals can only open
	// commitments or abort, so the coin's last phase overlaps agreement's
	// instead of following it.
	var onBound func()
	if coins != nil {
		onBound = coins.Release
	}
	// One batched vector consensus per round, in consensus instance 0.
	agreed, err := consensus.ProposeObserved(ctx, e.peer, round, 0, inputs, onBound)
	if err != nil {
		return e.deliverAbort(round, err)
	}

	// Phase 3: decode the agreed vector, substituting neutral bids for
	// anything invalid (identical at every provider: the inputs agree). The
	// vector is pooled: it feeds the round's allocator run and returns when
	// that run has fully joined.
	bids := e.getBids()
	defer e.putBids(bids)
	for i := range cfg.Users {
		bids.Users[i] = auction.SanitizeUserBid(agreed[i])
	}
	if cfg.Mechanism.DoubleSided() {
		for j := range cfg.Providers {
			bids.Providers[j] = auction.SanitizeProviderBid(agreed[len(cfg.Users)+j])
		}
	}

	// Phase 4: the allocator (Property 2) — input validation, then the
	// task-graph simulation of A. The compiled plan runs on the persistent
	// executor; mechanisms without one get a per-round graph as before.
	var coinSrc taskgraph.CoinSource
	if coins != nil {
		coinSrc = coins
	}
	var rawOutcome []byte
	if e.exec != nil {
		rawOutcome, err = allocator.RunExecutor(ctx, e.peer, round, bids.Encode(), e.exec, bids, coinSrc)
	} else {
		var graph *taskgraph.Graph
		graph, err = cfg.Mechanism.BuildGraph(GraphConfig{Providers: e.peer.Providers(), K: cfg.K}, *bids)
		if err != nil {
			return e.deliverAbort(round, e.peer.FailRound(round, fmt.Sprintf("build graph: %v", err)))
		}
		rawOutcome, err = allocator.RunWith(ctx, e.peer, round, bids.Encode(), graph, coinSrc)
	}
	if err != nil {
		return e.deliverAbort(round, err)
	}
	outcome, err := auction.DecodeOutcome(rawOutcome)
	if err != nil {
		return e.deliverAbort(round, e.peer.FailRound(round, fmt.Sprintf("decode outcome: %v", err)))
	}

	// Phase 5: report to bidders.
	e.deliverResult(round, true, rawOutcome)
	return outcome, nil
}

// runRound executes one complete auction round (Figure 1):
//
//	collect bids → bid agreement → allocator (validate + task graph) →
//	deliver outcome to bidders.
func (e *engine) runRound(ctx context.Context, round uint64, ownBid *auction.ProviderBid) (auction.Outcome, error) {
	inputs, err := e.openRound(ctx, round, ownBid)
	if err != nil {
		return auction.Outcome{}, err
	}
	return e.finishRound(ctx, round, inputs)
}

// deliverAbort reports ⊥ to all bidders and returns the abort error.
func (e *engine) deliverAbort(round uint64, err error) (auction.Outcome, error) {
	e.deliverResult(round, false, nil)
	return auction.Outcome{}, err
}

// deliverResult sends the round result (ok + outcome, or ⊥) to every user,
// at most once per round: a second delivery attempt — e.g. Close declaring
// ⊥ for a round whose worker just delivered the accepted outcome — is a
// no-op, so bidders never see two conflicting payloads under the result tag
// (which their peers would rightly flag as equivocation).
func (e *engine) deliverResult(round uint64, ok bool, rawOutcome []byte) {
	e.mu.Lock()
	// A round is only ended after its result was emitted, so rounds at or
	// below the end watermark count as delivered even though their map
	// entry has been reclaimed — otherwise Close's stale in-flight snapshot
	// could re-deliver ⊥ for a round that just completed and was ended.
	if round <= e.ended || e.delivered[round] {
		e.mu.Unlock()
		return
	}
	e.delivered[round] = true
	e.mu.Unlock()
	enc := wire.NewEncoder(2 + len(rawOutcome))
	enc.Bool(ok)
	enc.Bytes(rawOutcome)
	payload := enc.Buffer()
	tag := wire.Tag{Round: round, Block: wire.BlockResult, Step: 1}
	for _, u := range e.cfg.Users {
		// Best effort: a dead bidder must not wedge the provider.
		_ = e.peer.Send(u, tag, payload)
	}
}

// endRound reclaims the engine's and the peer's per-round state for all
// rounds <= round.
func (e *engine) endRound(round uint64) {
	e.mu.Lock()
	if round > e.ended {
		e.ended = round
	}
	for r := range e.delivered {
		if r <= round {
			delete(e.delivered, r)
		}
	}
	e.mu.Unlock()
	e.peer.EndRound(round)
}

// Provider is the manual-round compatibility shim over the round engine: it
// exposes one auction round at a time, leaving round numbering, pipelining
// and state reclamation to the caller. New code should prefer OpenSession,
// which drives the same engine continuously; Provider remains because the
// deviation and audit tests script raw messages around individual rounds.
type Provider struct {
	eng *engine
}

// NewProvider wraps conn (which must belong to one of cfg.Providers) into a
// manual-round provider runtime.
func NewProvider(conn transport.Conn, cfg Config) (*Provider, error) {
	eng, err := newEngine(conn, cfg)
	if err != nil {
		return nil, err
	}
	eng.compile(1) // manual rounds run one at a time
	return &Provider{eng: eng}, nil
}

// Peer exposes the protocol peer (deviation tests script raw messages
// through it).
func (p *Provider) Peer() *proto.Peer { return p.eng.peer }

// Close releases the provider's network resources and joins the engine's
// persistent workers.
func (p *Provider) Close() error {
	err := p.eng.peer.Close()
	p.eng.close()
	return err
}

// RunRound executes one complete auction round on the shared round engine.
// ownBid is this provider's bid for double-sided mechanisms (ignored
// otherwise; nil means neutral). The returned error matches
// proto.ErrAborted when the outcome is ⊥.
func (p *Provider) RunRound(ctx context.Context, round uint64, ownBid *auction.ProviderBid) (auction.Outcome, error) {
	return p.eng.runRound(ctx, round, ownBid)
}

// EndRound releases the round's buffered protocol state.
func (p *Provider) EndRound(round uint64) { p.eng.endRound(round) }
