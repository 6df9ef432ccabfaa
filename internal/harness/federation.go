package harness

import (
	"errors"
	"fmt"
	"time"

	"distauction/internal/core"
	"distauction/internal/federation"
	"distauction/internal/market"
	"distauction/internal/metrics"
	"distauction/internal/proto"
	"distauction/internal/wire"
)

// FederationResult summarises one marketplace throughput run.
type FederationResult struct {
	// Shards is the number of provider committees the catalog was
	// partitioned over; Auctions the number of concurrent auctions.
	Shards   int
	Auctions int
	// Rounds counts rounds emitted across all auctions (Accepted the
	// non-⊥ subset).
	Rounds   int
	Accepted int
	// Duration runs from the first bid submission until every bidder holds
	// every round's result of every auction it joined.
	Duration time.Duration
	// ResidualMsgs and ResidualRounds sum the buffered protocol state over
	// every provider session of every auction after the run — flat in
	// rounds, or per-round reclamation broke.
	ResidualMsgs   int
	ResidualRounds int
	// BidsAdmitted and BidsDropped aggregate the admission gates across
	// provider nodes; ParkedDropped their mux parking-overflow drops.
	BidsAdmitted  int64
	BidsDropped   int64
	ParkedDropped int64
	// FramesSent / SuperframesSent / EnvelopesSent aggregate the provider
	// muxes' outbound coalescing counters; EnvelopesSent/FramesSent is the
	// average batch occupancy.
	FramesSent      int64
	SuperframesSent int64
	EnvelopesSent   int64
	// Latency is the outcome-latency histogram (nanoseconds, bid collection
	// through outcome delivery) merged across every shard's first member —
	// each round counted once. AbortCodes breaks the ⊥ rounds down by typed
	// cause (proto.AbortCode index).
	Latency    metrics.HistogramSnapshot
	AbortCodes [proto.NumAbortCodes]int64
	// PerShard is the federation's shard rollup after the run.
	PerShard []federation.ShardSnapshot
}

// RunFederationDouble measures aggregate marketplace throughput:
// `auctions` double auctions partitioned round-robin over `shards`
// committees of m providers each (disjoint fleets — shards×m provider
// nodes total), n bidders joined to every auction through ONE federated
// bidder attachment each, every auction running `rounds` pipelined rounds.
// Local lanes are pinned so generated names cannot collide.
//
// One shard is the unsharded marketplace: one m-provider committee, every
// auction multiplexed over one attachment per node. With a non-zero
// latency model a single auction is latency-bound — its sequential
// protocol hops leave the host idle — so aggregate rounds/s should grow
// with the auction count until the CPU saturates; the shards axis then
// measures what partitioning the catalog buys.
func RunFederationDouble(shards, auctions, rounds int, opts ...Option) (FederationResult, error) {
	cfg := newConfig(opts)
	if shards < 1 || shards > federation.MaxShards {
		return FederationResult{}, fmt.Errorf("harness: shard count %d out of range [1,%d]", shards, federation.MaxShards)
	}
	if auctions < 1 || rounds < 1 {
		return FederationResult{}, errors.New("harness: need at least one auction and one round")
	}
	if auctions/shards+1 > federation.MaxLocalLane {
		return FederationResult{}, fmt.Errorf("harness: %d auctions overflow %d shards' local lanes", auctions, shards)
	}
	net := cfg.newNetwork()
	defer net.Close()

	// Shard s gets committee (s-1)m+1 .. sm; users are the usual 1001…
	specs := make([]federation.ShardSpec, shards)
	for s := range specs {
		committee := make([]wire.NodeID, cfg.m)
		for i := range committee {
			committee[i] = wire.NodeID(s*cfg.m + i + 1)
		}
		specs[s] = federation.ShardSpec{Index: s + 1, Providers: committee}
	}
	_, userIDs := ids(cfg.m, cfg.n)

	// A bidder may run ahead of the provider's admission window by its own
	// lookahead plus however far the market's outcome consumer lags ordered
	// emission — bounded by the session's outcome buffer (sized to `rounds`
	// below so emission never blocks). Size the window to cover that whole
	// skew: the bench asserts zero drops, and on a saturated host the
	// consumer can lag many rounds while bidders keep receiving results
	// straight off the wire.
	lookahead := cfg.pipeline + 1
	window := rounds + lookahead + 2

	fed, err := federation.Open(net, specs,
		federation.WithMarketOptions(market.WithAdmissionWindow(window), market.WithSweepEvery(0)))
	if err != nil {
		return FederationResult{}, err
	}
	defer fed.Close()

	type place struct {
		shard int
		local uint32
	}
	names := make([]string, auctions)
	places := make([]place, auctions)
	w := newDoubleWorkload(cfg.seed, auctions, rounds, cfg.n, cfg.m)
	for j := range names {
		names[j] = fmt.Sprintf("fed-%03d", j)
		places[j] = place{shard: j%shards + 1, local: uint32(j/shards + 1)}
		provBids := w.providers[j]
		err := fed.OpenAuction(federation.AuctionSpec{
			Name:      names[j],
			Shard:     places[j].shard,
			LocalLane: places[j].local,
			Users:     userIDs,
			Options: []core.SessionOption{
				core.WithK(cfg.k),
				core.WithMechanismName("double"),
				core.WithBidWindow(cfg.bidWindow),
				core.WithRoundTimeout(cfg.timeout),
				core.WithRoundLimit(uint64(rounds)),
				core.WithMaxConcurrentRounds(cfg.pipeline),
				core.WithOutcomeBuffer(rounds),
			},
			MemberOptions: func(i int, _ wire.NodeID) []core.SessionOption {
				return []core.SessionOption{core.WithProviderBid(provBids[i])}
			},
		})
		if err != nil {
			return FederationResult{}, err
		}
	}

	sessions := make([][]*core.BidderSession, cfg.n) // [user][auction]
	for i, id := range userIDs {
		conn, err := net.Attach(id)
		if err != nil {
			return FederationResult{}, err
		}
		fb, err := federation.NewBidder(conn, specs)
		if err != nil {
			return FederationResult{}, err
		}
		defer fb.Close()
		sessions[i] = make([]*core.BidderSession, auctions)
		for j, name := range names {
			s, err := fb.JoinOn(name, places[j].shard, places[j].local,
				core.WithRoundLimit(uint64(rounds)),
				core.WithOutcomeBuffer(cfg.pipeline+1),
				core.WithRoundTimeout(cfg.timeout))
			if err != nil {
				return FederationResult{}, err
			}
			sessions[i][j] = s
		}
	}

	accepted, elapsed, err := runClosedLoop(sessions, w.bids, rounds, lookahead)
	if err != nil {
		return FederationResult{}, err
	}

	// Wait for every committee member's consumer to finish (each of the m
	// members of an auction's shard counts its rounds), then read the
	// rollup and the residual protocol state.
	wantNodeRounds := int64(auctions * rounds * cfg.m)
	waitFor(cfg.timeout, func() bool {
		var nodeRounds int64
		for _, ns := range fed.Stats().PerNode {
			nodeRounds += ns.Rounds
		}
		return nodeRounds >= wantNodeRounds
	})
	snap := fed.Stats()
	res := FederationResult{
		Shards:     shards,
		Auctions:   auctions,
		Rounds:     int(snap.Rounds),
		Accepted:   accepted,
		Duration:   elapsed,
		Latency:    snap.Latency,
		AbortCodes: snap.AbortCodes,
		PerShard:   snap.PerShard,
	}
	for _, ns := range snap.PerNode {
		res.BidsAdmitted += ns.BidsAdmitted
		res.BidsDropped += ns.BidsDropped
		res.ParkedDropped += ns.ParkedDropped
		res.FramesSent += ns.FramesSent
		res.SuperframesSent += ns.SuperframesSent
		res.EnvelopesSent += ns.EnvelopesSent
	}
	for _, name := range names {
		handles, ok := fed.AuctionHandles(name)
		if !ok {
			return FederationResult{}, fmt.Errorf("harness: auction %q vanished", name)
		}
		for _, a := range handles {
			msgs, rds := a.Session().Peer().StateSize()
			res.ResidualMsgs += msgs
			res.ResidualRounds += rds
		}
	}
	return res, nil
}
