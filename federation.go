package distauction

import (
	"distauction/internal/core"
	"distauction/internal/federation"
	"distauction/internal/market"
	"distauction/internal/transport"
)

// Marketplace layer: many named auctions — each its own Session with its
// own mechanism, k, bid window and round cadence — multiplexed over ONE
// shared transport attachment per node, with the catalog partitioned
// across provider committees (shards) behind one façade. A 1-shard
// federation is the unsharded market: one committee runs every auction.
// Placement is deterministic (rendezvous hashing over the active shard
// set), bidders keep one attachment across all shards, and cross-shard
// settlement is atomic through the shared ledger. See internal/federation,
// internal/market and the "Marketplace layer" and "Sharded federation"
// sections of DESIGN.md.
type (
	// Federation is the federated marketplace façade: one catalog, one
	// Stats rollup, many provider committees.
	Federation = federation.Market
	// FederationOption configures a Federation at OpenFederation time.
	FederationOption = federation.Option
	// ShardSpec names a shard: a 1-based index and its provider committee.
	ShardSpec = federation.ShardSpec
	// FederatedAuctionSpec describes one auction of the federated catalog
	// (routed or pinned placement, per-member options, optional
	// cross-shard settle group).
	FederatedAuctionSpec = federation.AuctionSpec
	// FederationBidder is the user-side client: one attachment, auctions
	// on any shard.
	FederationBidder = federation.Bidder
	// ShardRouter maps auction names to shards (pins win, rendezvous
	// otherwise).
	ShardRouter = federation.Router
	// FederationSnapshot is the federation-wide rollup with per-shard and
	// per-node breakdowns.
	FederationSnapshot = federation.Snapshot
	// ShardSnapshot aggregates one shard's auctions.
	ShardSnapshot = federation.ShardSnapshot
	// MarketOption configures every per-node market of a federation (see
	// WithFederationMarketOptions).
	MarketOption = market.Option
	// EnforceTarget wires an auction's accepted outcomes to gateways and a
	// ledger (⊥ reserves and pays nothing).
	EnforceTarget = market.EnforceTarget
)

// Marketplace errors, re-exported for errors.Is; federation calls return
// them wrapped.
var (
	// ErrMarketClosed reports use of a closed per-node market or bidder.
	ErrMarketClosed = market.ErrMarketClosed
	// ErrUnknownAuction reports an operation on an auction that is not open.
	ErrUnknownAuction = market.ErrUnknownAuction
	// ErrLaneCollision reports two auction names of one shard deriving the
	// same wire lane; pin FederatedAuctionSpec.LocalLane to resolve.
	ErrLaneCollision = market.ErrLaneCollision
)

// Federation errors, re-exported for errors.Is.
var (
	// ErrFederationClosed reports use of a closed Federation.
	ErrFederationClosed = federation.ErrClosed
	// ErrUnknownShard reports an operation on a shard that is not open.
	ErrUnknownShard = federation.ErrUnknownShard
	// ErrShardDraining reports an OpenAuction on a draining shard.
	ErrShardDraining = federation.ErrShardDraining
)

// MaxShards is the number of addressable shards (the shard band of the
// wire lane space).
const MaxShards = federation.MaxShards

// OpenFederation starts a federated market over net with the given initial
// shards: every committee node is attached and runs a per-node market;
// auctions opened later place onto shards deterministically. Pass one
// shard for an unsharded marketplace.
func OpenFederation(net transport.Network, shards []ShardSpec, opts ...FederationOption) (*Federation, error) {
	return federation.Open(net, shards, opts...)
}

// OpenFederationBidder starts the user-side federation client over conn
// (the user's single attachment). The shard specs must match the
// providers' — deterministic placement is the coordination protocol.
func OpenFederationBidder(conn Conn, shards []ShardSpec) (*FederationBidder, error) {
	return federation.NewBidder(conn, shards)
}

// PlaceShardForName is the deterministic rendezvous placement of an
// auction name over a shard set; exported so any participant can predict
// and audit placement without holding a router.
func PlaceShardForName(name string, shards []int) int {
	return federation.PlaceForName(name, shards)
}

// ShardLaneForName is the shard-local lane an auction name derives by
// default; exported so deployments can predict and audit lane usage.
func ShardLaneForName(name string) uint32 { return federation.LocalLaneForName(name) }

// WithFederationMarketOptions forwards options to every per-node market
// the federation opens.
func WithFederationMarketOptions(opts ...MarketOption) FederationOption {
	return federation.WithMarketOptions(opts...)
}

// WithFederationOnOutcome installs a non-blocking callback invoked once
// per round outcome of every federated auction (after settlement).
func WithFederationOnOutcome(f func(auction string, shard int, out RoundOutcome)) FederationOption {
	return federation.WithOnOutcome(func(name string, shard int, out core.RoundOutcome) {
		f(name, shard, out)
	})
}

// WithAdmissionWindow sets how many rounds ahead of the last completed
// round bids are admitted (per auction; FederatedAuctionSpec can override).
func WithAdmissionWindow(n int) MarketOption { return market.WithAdmissionWindow(n) }

// WithSweepEvery sets the enforcement sweep cadence: every n completed
// rounds of an enforced auction its gateways drop expired reservations
// eagerly (0 disables).
func WithSweepEvery(n int) MarketOption { return market.WithSweepEvery(n) }
