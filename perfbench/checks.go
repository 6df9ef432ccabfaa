package main

import (
	"fmt"
	"reflect"

	"distauction"
)

// checkResolve re-solves every sampled round centrally from the generated
// bids and requires the distributed outcome to be identical.
func checkResolve(seed uint64, plans []auctionPlan, got []sampledOutcome) error {
	if len(got) == 0 {
		return fmt.Errorf("re-solve: no accepted round was sampled")
	}
	mech := distauction.NewDoubleAuction()
	for _, s := range got {
		bids := distauction.BidVector{Users: make([]distauction.UserBid, numUsers), Providers: plans[s.auction].providers}
		for i := range bids.Users {
			bids.Users[i] = userBid(seed, s.auction, s.round, i)
		}
		want, err := mech.Solve(bids, 0)
		if err != nil {
			return fmt.Errorf("re-solve %s round %d: %w", plans[s.auction].name, s.round, err)
		}
		if !reflect.DeepEqual(s.out, want) {
			return fmt.Errorf("re-solve %s round %d: distributed outcome differs from the central solve", plans[s.auction].name, s.round)
		}
	}
	return nil
}

// checkBooks requires every ledger to conserve supply, hold nothing in
// flight, and carry exactly the journal of a serial re-settlement of the
// outcomes the federation reported, through a fresh Enforcer on a fresh,
// identically funded ledger and fresh gateways. Settle groups replay the
// settler's two-phase commit (prepare every leg in name order, commit all
// or abort all); single auctions replay Enforce.
func (d *deployment) checkBooks() error {
	for _, b := range d.books {
		if got := b.ledger.TotalSupply(); got != b.supply {
			return fmt.Errorf("ledger of %s: supply %v, funded %v", d.plans[b.auctions[0]].name, got, b.supply)
		}
		if h := b.ledger.Holds(); h != 0 {
			return fmt.Errorf("ledger of %s: %d holds left", d.plans[b.auctions[0]].name, h)
		}
		replay := d.newBook()
		enforcers := make([]*distauction.Enforcer, len(b.auctions))
		for k, j := range b.auctions {
			p := &d.plans[j]
			gws := make([]*distauction.Gateway, len(p.committee))
			for g, id := range p.committee {
				gws[g] = distauction.NewGateway(id, gatewayCapacity)
			}
			enforcers[k] = &distauction.Enforcer{Ledger: replay.ledger, Gateways: gws, Escrow: escrow, TTL: reservationTTL}
		}
		if len(b.auctions) == 1 {
			p := &d.plans[b.auctions[0]]
			for _, out := range d.logs[b.auctions[0]].outs {
				if out.Err == nil {
					// An enforcement error is journaled exactly as the live
					// run's was (nothing), so it shows as a journal mismatch.
					_ = enforcers[0].Enforce(out.Round, out.Outcome, d.users, p.committee)
				}
			}
		} else if err := d.replayGroup(b, enforcers); err != nil {
			return err
		}
		if !reflect.DeepEqual(b.ledger.Journal(), replay.ledger.Journal()) {
			return fmt.Errorf("ledger of %s: journal differs from a serial re-settlement (%d live entries, %d replayed)",
				d.plans[b.auctions[0]].name, len(b.ledger.Journal()), len(replay.ledger.Journal()))
		}
	}
	return nil
}

// replayGroup re-settles one settle group round by round.
func (d *deployment) replayGroup(b *book, enforcers []*distauction.Enforcer) error {
	byRound := make([]map[uint64]distauction.RoundOutcome, len(b.auctions))
	var last uint64
	for k, j := range b.auctions {
		byRound[k] = make(map[uint64]distauction.RoundOutcome)
		for _, out := range d.logs[j].outs {
			byRound[k][out.Round] = out
			last = max(last, out.Round)
		}
	}
	for r := uint64(1); r <= last; r++ {
		var commits, aborts []func() error
		failed := false
		for k, j := range b.auctions {
			out, ok := byRound[k][r]
			if !ok || out.Err != nil {
				continue
			}
			staged, err := enforcers[k].Prepare(r, out.Outcome, d.users, d.plans[j].committee)
			if err != nil {
				failed = true
				break
			}
			commits = append(commits, staged.Commit)
			aborts = append(aborts, staged.Abort)
		}
		finish := commits
		if failed {
			finish = aborts
		}
		for _, f := range finish {
			if err := f(); err != nil {
				return fmt.Errorf("replay round %d: %w", r, err)
			}
		}
	}
	return nil
}
