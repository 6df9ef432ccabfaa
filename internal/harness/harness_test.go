package harness

import (
	"testing"
	"time"

	"distauction/internal/transport"
)

func TestDistributedDoubleRound(t *testing.T) {
	res, err := RunDistributedDouble(
		WithProviders(3), WithUsers(5), WithK(1), WithSeed(1), WithBidWindow(time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Error("no duration measured")
	}
	if res.Msgs == 0 || res.Bytes == 0 {
		t.Error("no traffic recorded")
	}
	if res.Outcome.Alloc.NumUsers != 5 || res.Outcome.Alloc.NumProviders != 3 {
		t.Errorf("outcome shape %dx%d", res.Outcome.Alloc.NumUsers, res.Outcome.Alloc.NumProviders)
	}
}

func TestDistributedStandardRound(t *testing.T) {
	res, err := RunDistributedStandard(
		WithProviders(4), WithUsers(6), WithK(1), WithSeed(2), WithBidWindow(time.Second), WithInvEpsilon(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Alloc.NumUsers != 6 || res.Outcome.Alloc.NumProviders != 4 {
		t.Errorf("outcome shape %dx%d", res.Outcome.Alloc.NumUsers, res.Outcome.Alloc.NumProviders)
	}
}

func TestCentralizedDoubleRound(t *testing.T) {
	res, err := RunCentralizedDouble(
		WithProviders(3), WithUsers(5), WithSeed(1), WithBidWindow(time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Alloc.NumUsers != 5 {
		t.Error("outcome shape wrong")
	}
}

func TestCentralizedStandardRound(t *testing.T) {
	res, err := RunCentralizedStandard(
		WithProviders(4), WithUsers(6), WithSeed(2), WithBidWindow(time.Second), WithInvEpsilon(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Alloc.NumUsers != 6 {
		t.Error("outcome shape wrong")
	}
}

// The same seed must yield the same workload, so double-auction outcomes
// (deterministic mechanism) are identical between a distributed run and a
// centralized run — the "correct simulation" property end to end.
func TestDistributedMatchesCentralizedDouble(t *testing.T) {
	opts := []Option{WithProviders(3), WithUsers(8), WithK(1), WithSeed(42), WithBidWindow(time.Second)}
	dist, err := RunDistributedDouble(opts...)
	if err != nil {
		t.Fatal(err)
	}
	cent, err := RunCentralizedDouble(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Outcome.Digest() != cent.Outcome.Digest() {
		t.Error("distributed and centralized double-auction outcomes differ")
	}
}

// A multi-round session run must complete every round, accept them all
// (honest deployment), and leave no residual protocol state behind.
func TestSessionDoubleThroughput(t *testing.T) {
	res, err := RunSessionDouble(25,
		WithProviders(3), WithUsers(4), WithK(1), WithSeed(7),
		WithBidWindow(2*time.Second), WithPipelineDepth(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 25 || res.Accepted != 25 {
		t.Errorf("rounds=%d accepted=%d, want 25/25", res.Rounds, res.Accepted)
	}
	if res.RoundsPerSec() <= 0 {
		t.Error("no throughput measured")
	}
	if res.ResidualMsgs != 0 || res.ResidualRounds != 0 {
		t.Errorf("residual state after run: %d msgs, %d rounds", res.ResidualMsgs, res.ResidualRounds)
	}
}

// The harness is transport-agnostic: the same deployment code runs over
// real TCP sockets via WithNetwork.
func TestDistributedDoubleOverTCP(t *testing.T) {
	res, err := RunDistributedDouble(
		WithProviders(3), WithUsers(3), WithK(1), WithSeed(3), WithBidWindow(2*time.Second),
		WithNetwork(func(int64) transport.Network {
			return transport.NewTCPNetwork(transport.TCPNetworkConfig{})
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Alloc.NumUsers != 3 {
		t.Error("outcome shape wrong")
	}
}

// With network latency injected, the distributed round must be measurably
// slower than the zero-latency run — the communication overhead that
// Figure 4 plots.
func TestLatencyShowsUpInMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	base := []Option{WithProviders(3), WithUsers(4), WithK(1), WithSeed(3), WithBidWindow(2 * time.Second)}
	fast, err := RunDistributedDouble(base...)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunDistributedDouble(append(base,
		WithLatency(transport.LatencyModel{Base: 10 * time.Millisecond}))...)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Duration < fast.Duration+20*time.Millisecond {
		t.Errorf("latency not reflected: fast=%v slow=%v", fast.Duration, slow.Duration)
	}
}

// The marketplace throughput run, unsharded (one committee) and
// sharded: every round of every auction is accepted, the outcome-latency
// histogram counts each round exactly once, and nothing is dropped or left
// buffered.
func TestFederationDoubleThroughput(t *testing.T) {
	const auctions, rounds = 2, 5
	for _, shards := range []int{1, 2} {
		res, err := RunFederationDouble(shards, auctions, rounds,
			WithProviders(3), WithUsers(4), WithK(1), WithSeed(5),
			WithBidWindow(2*time.Second), WithPipelineDepth(2),
		)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Rounds != auctions*rounds || res.Accepted != auctions*rounds {
			t.Errorf("shards=%d: rounds=%d accepted=%d, want %d/%d",
				shards, res.Rounds, res.Accepted, auctions*rounds, auctions*rounds)
		}
		if res.Latency.Count != auctions*rounds {
			t.Errorf("shards=%d: latency count %d, want %d", shards, res.Latency.Count, auctions*rounds)
		}
		if res.BidsDropped != 0 || res.ParkedDropped != 0 {
			t.Errorf("shards=%d: dropped %d bids, %d parked envelopes", shards, res.BidsDropped, res.ParkedDropped)
		}
		if res.ResidualMsgs != 0 || res.ResidualRounds != 0 {
			t.Errorf("shards=%d: residual state %d msgs, %d rounds", shards, res.ResidualMsgs, res.ResidualRounds)
		}
		if len(res.PerShard) != shards {
			t.Errorf("shards=%d: rollup has %d shards", shards, len(res.PerShard))
		}
	}
}
