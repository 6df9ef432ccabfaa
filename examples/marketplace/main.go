// A multi-auction marketplace over one shared provider fleet.
//
// The paper runs one auction among a fixed provider set; a production
// deployment runs many — here, three gateway operators jointly serve three
// independent resource markets (uplink bandwidth, downlink bandwidth, and
// an edge-compute spot market) as concurrent auctions multiplexed over ONE
// network attachment per node. The marketplace is a 1-shard federation:
// one committee, the paper's simulated auctioneer, runs every auction.
// Each auction is its own session on its own wire lane with its own
// cadence; the uplink market's outcomes are enforced on real gateways and
// a shared credit ledger, and the market's admission gate drops a flood of
// out-of-window bids at the door.
//
//	go run ./examples/marketplace
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"distauction"
)

const escrow = distauction.NodeID(999)

func main() {
	hub := distauction.NewHub(distauction.CommunityNetModel(), 7)
	defer hub.Close()

	providers := []distauction.NodeID{1, 2, 3}
	shards := []distauction.ShardSpec{{Index: 1, Providers: providers}}
	households := []distauction.NodeID{100, 101, 102, 103}
	const rounds = 3

	// Shared community ledger; uplink reservations land on real gateways.
	ledger := distauction.NewLedger()
	ledger.Open(escrow)
	for _, id := range providers {
		ledger.Open(id)
	}
	for _, id := range households {
		ledger.Open(id)
		if err := ledger.Deposit(id, distauction.Fx(100)); err != nil {
			log.Fatal(err)
		}
	}
	gateways := []*distauction.Gateway{
		distauction.NewGateway(1, distauction.Fx(8)),
		distauction.NewGateway(2, distauction.Fx(8)),
		distauction.NewGateway(3, distauction.Fx(8)),
	}
	uplinkEnforce := &distauction.EnforceTarget{
		Ledger: ledger, Gateways: gateways, Escrow: escrow, TTL: time.Hour,
	}

	// One committee of three providers runs every auction, each provider
	// over ONE attachment; provider 1 — the committee's first member and the
	// gateway operator of this example — enforces the uplink market.
	auctions := []struct {
		name string
		cost float64
	}{
		{"uplink", 0.25},
		{"downlink", 0.15},
		{"edge-compute", 0.40},
	}
	fed, err := distauction.OpenFederation(hub, shards)
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Close()
	for _, a := range auctions {
		spec := distauction.FederatedAuctionSpec{
			Name:  a.name,
			Users: households,
			Options: []distauction.Option{
				distauction.WithK(1),
				distauction.WithMechanismName("double"),
				distauction.WithBidWindow(10 * time.Second),
				distauction.WithRoundTimeout(time.Minute),
				distauction.WithRoundLimit(rounds),
				distauction.WithOutcomeBuffer(rounds),
			},
			MemberOptions: func(pi int, _ distauction.NodeID) []distauction.Option {
				return []distauction.Option{distauction.WithProviderBid(distauction.ProviderBid{
					Cost:     distauction.Fx(a.cost * float64(pi+1)),
					Capacity: distauction.Fx(8),
				})}
			},
		}
		if a.name == "uplink" {
			spec.Enforce = uplinkEnforce
		}
		if err := fed.OpenAuction(spec); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("committee %v: market open, catalog %v (lanes:", providers, fed.Names())
	for _, name := range fed.Names() {
		_, lane, err := fed.Place(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf(" %d", lane)
	}
	fmt.Println(")")

	// Households join every market through one attachment each and bid
	// per-market demand for every round up front.
	demand := map[string]struct{ value, units float64 }{
		"uplink":       {1.2, 2.0},
		"downlink":     {0.8, 3.0},
		"edge-compute": {2.0, 1.0},
	}
	var wg sync.WaitGroup
	for hi, id := range households {
		conn, err := hub.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		mb, err := distauction.OpenFederationBidder(conn, shards)
		if err != nil {
			log.Fatal(err)
		}
		defer mb.Close()
		for _, a := range auctions {
			s, err := mb.Join(a.name,
				distauction.WithRoundLimit(rounds),
				distauction.WithRoundTimeout(time.Minute))
			if err != nil {
				log.Fatal(err)
			}
			d := demand[a.name]
			for r := uint64(1); r <= rounds; r++ {
				bid := distauction.UserBid{
					// Valuations drift per household and round.
					Value:  distauction.Fx(d.value * (1 + 0.1*float64(hi) + 0.05*float64(r))),
					Demand: distauction.Fx(d.units),
				}
				if err := s.Submit(r, bid); err != nil {
					log.Fatal(err)
				}
			}
			wg.Add(1)
			go func(name string, hi int, s *distauction.BidderSession) {
				defer wg.Done()
				for out := range s.Outcomes() {
					if hi != 0 {
						continue // one reporter per auction is enough
					}
					if out.Err != nil {
						fmt.Printf("%-12s round %d: ⊥ (%v)\n", name, out.Round, out.Err)
						continue
					}
					fmt.Printf("%-12s round %d: accepted — users pay %v, providers receive %v\n",
						name, out.Round, out.Outcome.Pay.TotalPaid(), out.Outcome.Pay.TotalReceived())
				}
			}(a.name, hi, s)
		}
	}

	// Meanwhile a confused (or malicious) client floods bids far beyond the
	// admission window; the market drops them at the door.
	flooder, err := hub.Attach(4242)
	if err != nil {
		log.Fatal(err)
	}
	fb, err := distauction.OpenFederationBidder(flooder, shards)
	if err != nil {
		log.Fatal(err)
	}
	defer fb.Close()
	fs, err := fb.Join("uplink", distauction.WithRoundTimeout(time.Second))
	if err != nil {
		log.Fatal(err)
	}
	for r := uint64(500); r < 520; r++ {
		if err := fs.Submit(r, distauction.UserBid{Value: distauction.Fx(9), Demand: distauction.Fx(9)}); err != nil {
			log.Fatal(err)
		}
	}

	wg.Wait()

	// Let provider 1's consumers finish enforcing, then report.
	deadline := time.Now().Add(time.Minute)
	for fed.Stats().Rounds < int64(len(auctions)*rounds) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	snap := fed.Stats()
	fmt.Println()
	fmt.Printf("market totals: %d rounds (%d accepted, %d ⊥) across %d auctions, %.1f rounds/s aggregate\n",
		snap.Rounds, snap.Accepted, snap.Aborted, snap.Auctions, snap.RoundsPerSec)
	fmt.Printf("admission: %d bids admitted, %d dropped (the flood)\n", snap.BidsAdmitted, snap.BidsDropped)
	reserved := 0
	for _, g := range gateways {
		reserved += g.Live()
	}
	fmt.Printf("enforcement: %d live uplink reservations, escrow holds %v, supply %v\n",
		reserved, ledger.Balance(escrow), ledger.TotalSupply())
}
