package main

import (
	"time"

	"distauction"
)

// Every workload deploys the same committee shape and mechanism as the
// BenchmarkMarketThroughput rows (m=3 providers per committee, n=10 bidders,
// k=1, the double auction, pipeline depth 4), so its figures stay
// comparable with them.
const (
	committeeSize = 3
	numUsers      = 10
	coalition     = 1
	depth         = 4
	// lookahead is how many rounds a closed-loop bidder runs ahead: one more
	// than the providers' pipeline, so a round never waits for its bids.
	lookahead = depth + 1

	firstUser = 1001
	escrow    = distauction.NodeID(999)

	// bidWindow outlasts any queueing a round can see, so a late bid is a
	// failure of the system under test, never of the load generator.
	bidWindow    = 10 * time.Second
	roundTimeout = 30 * time.Second
	// outcomeBuffer bounds how far a market's consumer may trail emission;
	// the admission window covers that lag plus the bidders' lookahead, so
	// no honest bid is ever turned away.
	outcomeBuffer   = 64
	admissionWindow = outcomeBuffer + lookahead + 2

	// chaosKillEvery is how many completed rounds pass between connection
	// kills on hub-chaos-64 (the victim rotates over every node).
	chaosKillEvery = 300
	chaosDrop      = 0.01
	chaosBlackout  = 30 * time.Millisecond

	// reservationTTL bounds how long an enforced round's gateway
	// reservations live between prepare and commit; settlement runs both
	// phases on one call path, so it only has to outlast a stalled host.
	reservationTTL = 50 * time.Millisecond

	// resolveEvery: about one round in this many is re-solved centrally.
	resolveEvery = 8
)

type netKind int

const (
	hubNet   netKind = iota // in-memory Hub, community-network latency model
	tcpNet                  // authenticated loopback TCP, no simulated delay
	chaosNet                // Resilient(faultnet.Wrap(Hub)), drops and kills
)

// workload is one named deployment and load.
type workload struct {
	name     string
	why      string
	net      netKind
	shards   int
	auctions int
	// settle pairs auctions across shards into settle groups enforced
	// through the federation's two-phase settler; enforce gives every
	// auction its own ledger enforced by its committee's first member.
	settle, enforce bool
}

var workloads = []*workload{
	{
		name: "hub-sat-64", net: hubNet, shards: 1, auctions: 64,
		why: "64 auctions in a closed loop saturate the CPU: coordination-path CPU savings show in rounds_per_s",
	},
	{
		name: "hub-lat-1", net: hubNet, shards: 1, auctions: 1,
		why: "1 auction is latency-bound with the host mostly idle: protocol steps and batching delay show, CPU savings do not",
	},
	{
		name: "tcp-fed-settle", net: tcpNet, shards: 2, auctions: 16, settle: true,
		why: "16 auctions in a closed loop over authenticated TCP, clocked by cross-shard 2PC settlement: the only run of wire, auth, TCP framing and the settler",
	},
	{
		name: "hub-chaos-64", net: chaosNet, shards: 1, auctions: 64, enforce: true,
		why: "1% frame drops and connection kills under 64 auctions: the only run of the link layer (ARQ, dedup, heartbeats, reconnect)",
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// The inputs are pure functions of (seed, auction, round, user): the
// deployment receives only the generated bids, and the output check
// re-derives them. Draws come from a SplitMix64 stream keyed by those
// coordinates, which allocates nothing on the load generator's path.
type stream struct{ s uint64 }

const (
	userStream = iota + 1
	providerStream
	sampleStream
)

func newStream(seed uint64, kind, auction, round, user int) stream {
	g := stream{seed}
	for _, k := range [...]int{kind, auction, round, user} {
		g.s ^= uint64(k)
		g.s = g.next()
	}
	return g
}

func (g *stream) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// unit draws a float uniform in [0, 1).
func (g *stream) unit() float64 { return float64(g.next()>>11) / (1 << 53) }

// micro draws a Fixed uniform in (0, 1].
func (g *stream) micro() distauction.Fixed {
	return distauction.Fx(float64(1+g.next()%1_000_000) / 1e6)
}

// userBid is user i's bid in round r of auction j: a per-unit value uniform
// in [0.75, 1.25] and a demand uniform in (0, 1] (the paper's §6.2).
func userBid(seed uint64, j, r, i int) distauction.UserBid {
	g := newStream(seed, userStream, j, r, i)
	return distauction.UserBid{Value: distauction.Fx(0.75 + 0.5*g.unit()), Demand: g.micro()}
}

// providerBids is auction j's committee bids: unit costs uniform in (0, 1],
// capacities the expected per-provider demand share scaled by [0.5, 1.5], so
// both shortage and surplus rounds occur.
func providerBids(seed uint64, j int) []distauction.ProviderBid {
	g := newStream(seed, providerStream, j, 0, 0)
	share := 0.5 * numUsers / committeeSize
	bids := make([]distauction.ProviderBid, committeeSize)
	for p := range bids {
		bids[p] = distauction.ProviderBid{Cost: g.micro(), Capacity: distauction.Fx(share * (0.5 + g.unit()))}
	}
	return bids
}

// sampled reports whether round r of auction j is in the re-solve sample.
func sampled(seed uint64, j, r int) bool {
	g := newStream(seed, sampleStream, j, r, 0)
	return g.next()%resolveEvery == 0
}
