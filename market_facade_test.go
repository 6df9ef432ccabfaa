package distauction_test

import (
	"testing"
	"time"

	"distauction"
)

// TestMarketFacadeEndToEnd drives the marketplace through the public
// façade only: a 1-shard federation — three providers, one hub attachment
// each — runs two auctions concurrently, every bidder joins both, and
// every round of both auctions completes.
func TestMarketFacadeEndToEnd(t *testing.T) {
	const rounds = 2
	hub := distauction.NewHub(distauction.LatencyModel{}, 1)
	defer hub.Close()

	shards := []distauction.ShardSpec{{Index: 1, Providers: []distauction.NodeID{1, 2, 3}}}
	users := []distauction.NodeID{100, 101}

	specFor := func(name string, cost, capacity float64) distauction.FederatedAuctionSpec {
		return distauction.FederatedAuctionSpec{
			Name:  name,
			Users: users,
			Options: []distauction.Option{
				distauction.WithK(1),
				distauction.WithMechanismName("double"),
				distauction.WithBidWindow(10 * time.Second),
				distauction.WithRoundTimeout(time.Minute),
				distauction.WithRoundLimit(rounds),
				distauction.WithOutcomeBuffer(rounds),
				distauction.WithProviderBid(distauction.ProviderBid{
					Cost:     distauction.Fx(cost),
					Capacity: distauction.Fx(capacity),
				}),
			},
		}
	}

	fed, err := distauction.OpenFederation(hub, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if err := fed.OpenAuction(specFor("uplink", 1.0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := fed.OpenAuction(specFor("downlink", 0.8, 8)); err != nil {
		t.Fatal(err)
	}
	if got := fed.Names(); len(got) != 2 || got[0] != "downlink" || got[1] != "uplink" {
		t.Fatalf("catalog: %v", got)
	}

	type stream struct {
		name string
		outs <-chan distauction.RoundOutcome
	}
	var streams []stream
	for _, id := range users {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := distauction.OpenFederationBidder(conn, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer mb.Close()
		for _, name := range []string{"uplink", "downlink"} {
			s, err := mb.Join(name,
				distauction.WithRoundLimit(rounds),
				distauction.WithRoundTimeout(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			for r := uint64(1); r <= rounds; r++ {
				bid := distauction.UserBid{Value: distauction.Fx(1.5), Demand: distauction.Fx(1)}
				if err := s.Submit(r, bid); err != nil {
					t.Fatal(err)
				}
			}
			streams = append(streams, stream{name: name, outs: s.Outcomes()})
		}
	}

	for _, st := range streams {
		for r := 1; r <= rounds; r++ {
			select {
			case out, ok := <-st.outs:
				if !ok {
					t.Fatalf("%s: stream closed at round %d", st.name, r)
				}
				if out.Err != nil {
					t.Fatalf("%s round %d: %v", st.name, out.Round, out.Err)
				}
			case <-time.After(time.Minute):
				t.Fatalf("%s: timeout waiting for round %d", st.name, r)
			}
		}
	}

	deadline := time.Now().Add(time.Minute)
	for {
		snap := fed.Stats()
		if snap.Accepted == 2*rounds {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("market stats never converged: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
}
