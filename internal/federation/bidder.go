package federation

import (
	"fmt"
	"sync"

	"distauction/internal/core"
	"distauction/internal/market"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// Bidder is the user-side federation client: ONE transport attachment,
// auctions on any number of shards. It carries its own shard router built
// from the same shard set the providers use, so Join computes the same
// placement (shard, committee, wire lane) the federation did when it
// opened the auction — no lookup round-trip, no per-shard attachments.
type Bidder struct {
	inner  *market.Bidder
	router *Router

	mu         sync.Mutex
	committees map[int][]wire.NodeID
}

// NewBidder wraps conn (the user's single attachment) for a federation
// running the given shards. The shard specs must match the providers'
// (same indices, same committees) — deterministic placement is the whole
// coordination protocol.
func NewBidder(conn transport.Conn, shards []ShardSpec) (*Bidder, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("%w: federation bidder needs shards", core.ErrConfig)
	}
	router, err := NewRouter()
	if err != nil {
		return nil, err
	}
	committees := make(map[int][]wire.NodeID, len(shards))
	for _, spec := range shards {
		if len(spec.Providers) == 0 {
			return nil, fmt.Errorf("%w: shard %d needs a committee", core.ErrConfig, spec.Index)
		}
		if err := router.AddShard(spec.Index); err != nil {
			return nil, err
		}
		committees[spec.Index] = append([]wire.NodeID(nil), spec.Providers...)
	}
	inner, err := market.NewBidder(conn, shards[0].Providers)
	if err != nil {
		return nil, err
	}
	return &Bidder{
		inner:      inner,
		router:     router,
		committees: committees,
	}, nil
}

// Self returns the bidder's node ID.
func (b *Bidder) Self() wire.NodeID { return b.inner.Self() }

// Router exposes the bidder's local router so callers can mirror provider-
// side pins before joining (a pinned auction must be pinned identically on
// both sides).
func (b *Bidder) Router() *Router { return b.router }

// AddShard activates a shard on the bidder's router, mirroring the
// federation's OpenShard.
func (b *Bidder) AddShard(spec ShardSpec) error {
	if len(spec.Providers) == 0 {
		return fmt.Errorf("%w: shard %d needs a committee", core.ErrConfig, spec.Index)
	}
	if err := b.router.AddShard(spec.Index); err != nil {
		return err
	}
	b.mu.Lock()
	b.committees[spec.Index] = append([]wire.NodeID(nil), spec.Providers...)
	b.mu.Unlock()
	return nil
}

// RemoveShard mirrors the federation's CloseShard/DrainShard.
func (b *Bidder) RemoveShard(shard int) error {
	if err := b.router.RemoveShard(shard); err != nil {
		return err
	}
	b.mu.Lock()
	delete(b.committees, shard)
	b.mu.Unlock()
	return nil
}

// Join opens a bidder session for the named auction wherever the router
// places it: the placement's shard committee over the placement's wire
// lane. Options mirror core.OpenBidderSession's.
func (b *Bidder) Join(name string, opts ...core.SessionOption) (*core.BidderSession, error) {
	shard, ok := b.router.Place(name)
	if !ok {
		return nil, fmt.Errorf("%w: no shard active", ErrUnknownShard)
	}
	return b.JoinOn(name, shard, LocalLaneForName(name), opts...)
}

// JoinOn joins an auction whose placement was pinned (explicit shard
// and/or local lane in the provider-side AuctionSpec).
func (b *Bidder) JoinOn(name string, shard int, local uint32, opts ...core.SessionOption) (*core.BidderSession, error) {
	b.mu.Lock()
	committee, ok := b.committees[shard]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownShard, shard)
	}
	return b.inner.JoinCommittee(name, WireLane(shard, local), committee, opts...)
}

// Leave closes the named auction's session and frees its lane.
func (b *Bidder) Leave(name string) error { return b.inner.Leave(name) }

// Close leaves every auction and releases the shared connection.
func (b *Bidder) Close() error { return b.inner.Close() }
