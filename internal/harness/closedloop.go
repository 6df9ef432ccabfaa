package harness

import (
	"fmt"
	"sync"
	"time"

	"distauction/internal/auction"
	"distauction/internal/core"
	"distauction/internal/workload"
)

// doubleWorkload is the deterministic multi-auction double-auction workload
// the marketplace runs share: auction j draws its provider bids from
// seed+j·104729 and its round-r user bids from seed+j·104729+r·7919.
type doubleWorkload struct {
	providers [][]auction.ProviderBid // [auction][provider]
	bids      [][][]auction.UserBid   // [auction][round][user]
}

func newDoubleWorkload(seed uint64, auctions, rounds, n, m int) doubleWorkload {
	w := doubleWorkload{
		providers: make([][]auction.ProviderBid, auctions),
		bids:      make([][][]auction.UserBid, auctions),
	}
	for j := range w.bids {
		base := seed + uint64(j)*104729
		w.providers[j] = workload.NewDoubleAuction(base, n, m).Providers
		w.bids[j] = make([][]auction.UserBid, rounds)
		for r := range w.bids[j] {
			w.bids[j][r] = workload.NewDoubleAuction(base+uint64(r)*7919, n, m).Users
		}
	}
	return w
}

// runClosedLoop drives every bidder session ([user][auction]) closed-loop:
// each primes `lookahead` rounds of bids, then submits round seen+lookahead
// as each outcome arrives, until all `rounds` results are in. It returns
// the wall time from the first submission to the last result and the
// non-⊥ rounds the first user saw across every auction.
func runClosedLoop(sessions [][]*core.BidderSession, bids [][][]auction.UserBid, rounds, lookahead int) (accepted int, elapsed time.Duration, err error) {
	auctions := len(bids)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(sessions)*auctions)
	acceptedPerAuction := make([]int, auctions)
	for i := range sessions {
		for j := range bids {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				s := sessions[i][j]
				slot := i*auctions + j
				for r := 1; r <= min(lookahead, rounds); r++ {
					if err := s.Submit(uint64(r), bids[j][r-1][i]); err != nil {
						errs[slot] = err
						return
					}
				}
				seen, ok := 0, 0
				for out := range s.Outcomes() {
					seen++
					if out.Err == nil {
						ok++
					}
					if next := seen + lookahead; next <= rounds {
						if err := s.Submit(uint64(next), bids[j][next-1][i]); err != nil {
							errs[slot] = err
							return
						}
					}
				}
				if seen != rounds {
					errs[slot] = fmt.Errorf("auction %d: saw %d of %d rounds", j, seen, rounds)
					return
				}
				if i == 0 {
					acceptedPerAuction[j] = ok
				}
			}(i, j)
		}
	}
	wg.Wait()
	elapsed = time.Since(start)
	for slot, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("harness: bidder %d: %w", slot/auctions, err)
		}
	}
	for _, n := range acceptedPerAuction {
		accepted += n
	}
	return accepted, elapsed, nil
}

// waitFor polls done every millisecond until it holds or timeout passes,
// and reports whether it held. Provider-side consumers count (and settle)
// a round slightly after the bidders hold its result, so runs wait on
// them before reading counters.
func waitFor(timeout time.Duration, done func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !done() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
