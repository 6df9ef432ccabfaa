package harness

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"distauction/internal/core"
	"distauction/internal/fixed"
	"distauction/internal/gateway"
	"distauction/internal/ledger"
	"distauction/internal/market"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/transport/faultnet"
	"distauction/internal/wire"
)

// ChaosConfig describes one chaos soak: a full marketplace run over the
// resilience stack — session traffic over Resilient(faultnet.Wrap(Hub)) —
// with frame drops and periodic connection kills injected underneath the
// ARQ layer.
type ChaosConfig struct {
	// Auctions and Rounds shape the market exactly as in RunFederationDouble
	// with one shard.
	Auctions int
	Rounds   int
	// Providers, Users, K configure the committee (defaults 3, 4, 1).
	Providers, Users, K int
	// Seed drives the workload, the hub jitter, and the fault schedule.
	Seed uint64
	// Drop is the per-frame drop probability on every link (e.g. 0.01).
	Drop float64
	// KillEvery kills one node's connections every KillEvery completed
	// rounds, rotating the victim across all nodes (0 = no kills).
	KillEvery int
	// Blackout is the dark window a kill opens (default 30ms).
	Blackout time.Duration
	// Timeout bounds the whole soak (default 2 min).
	Timeout time.Duration
}

// ChaosResult reports what the soak survived. The correctness assertions —
// cross-provider ledger-journal equality and replay equality against a
// serial re-settlement of the observed outcomes — run inside RunMarketChaos
// and fail the run; the counters here are for reporting and for the
// zero-transport-aborts assertion the caller owns.
type ChaosResult struct {
	Rounds   int
	Accepted int
	Aborted  int
	// AbortCodes breaks any ⊥ rounds down by cause; a resilience regression
	// shows up as nonzero disconnect/timeout counts.
	AbortCodes [proto.NumAbortCodes]int64
	// Faults is what the injector actually did; Link is what the ARQ layer
	// did to mask it (summed over the first provider's attachment).
	Faults   faultnet.Stats
	Link     transport.LinkStats
	Duration time.Duration
}

func (c *ChaosConfig) defaults() {
	if c.Providers == 0 {
		c.Providers = 3
	}
	if c.Users == 0 {
		c.Users = 4
	}
	if c.K == 0 {
		c.K = 1
	}
	if c.Blackout == 0 {
		c.Blackout = 30 * time.Millisecond
	}
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Minute
	}
}

// chaosLink is the link config for soaks: fast heartbeats so acks and
// failure detection keep up with millisecond rounds, and a deep resend
// buffer so sustained superframe traffic never evicts an unacked frame
// (an evicted frame that faultnet also dropped would be lost for good).
func chaosLink() transport.ResilientConfig {
	return transport.ResilientConfig{
		HeartbeatEvery: 5 * time.Millisecond,
		ResendAfter:    15 * time.Millisecond,
		SuspectAfter:   8,
		DeadAfter:      40,
		MaxUnacked:     1 << 16,
	}
}

// RunMarketChaos runs a full marketplace under injected transport faults
// and proves the outcome stream unharmed: every provider settles every
// auction into its own private ledger, and the run fails unless (1) all
// committee members' journals are identical per auction and (2) the first
// provider's journal equals a serial replay of the outcomes it observed,
// re-settled through a fresh gateway.Enforcer. Abort counts are returned,
// not asserted — the caller decides how many (typically zero) it tolerates.
func RunMarketChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg.defaults()
	if cfg.Auctions < 1 || cfg.Rounds < 1 {
		return ChaosResult{}, errors.New("harness: need at least one auction and one round")
	}

	hub := transport.NewHub(transport.LatencyModel{}, int64(cfg.Seed))
	fn := faultnet.Wrap(hub, faultnet.Config{
		Seed:     int64(cfg.Seed),
		Default:  faultnet.Profile{Drop: cfg.Drop},
		Blackout: cfg.Blackout,
	})
	net := transport.Resilient(fn, chaosLink())
	defer net.Close()

	m, n := cfg.Providers, cfg.Users
	providerIDs, userIDs := ids(m, n)
	const escrow wire.NodeID = 999
	victims := append(append([]wire.NodeID{}, providerIDs...), userIDs...)

	pipeline := 2
	lookahead := pipeline + 1
	window := cfg.Rounds + lookahead + 2
	timeout := cfg.Timeout

	names := make([]string, cfg.Auctions) // auction j runs on lane j+1
	for j := range names {
		names[j] = fmt.Sprintf("chaos-%03d", j)
	}
	w := newDoubleWorkload(cfg.Seed, cfg.Auctions, cfg.Rounds, n, m)

	// Every committee member settles every auction into its own private
	// ledger + gateway set, all identically funded: after the run the
	// journals must agree entry-for-entry, or resilience lost or reordered
	// an outcome somewhere.
	newLedger := func() *ledger.Ledger {
		led := ledger.New()
		led.Open(escrow)
		for _, id := range userIDs {
			led.Open(id)
			if err := led.Deposit(id, fixed.MustFloat(1e7)); err != nil {
				panic(err) // fresh ledger, cannot overflow
			}
		}
		for _, id := range providerIDs {
			led.Open(id)
		}
		return led
	}
	ledgers := make([][]*ledger.Ledger, m) // [provider][auction]
	for i := range ledgers {
		ledgers[i] = make([]*ledger.Ledger, cfg.Auctions)
		for j := range ledgers[i] {
			ledgers[i][j] = newLedger()
		}
	}
	newGateways := func() []*gateway.Gateway {
		gws := make([]*gateway.Gateway, m)
		for p := range gws {
			gws[p] = gateway.New(providerIDs[p], fixed.MustFloat(1e9), nil)
		}
		return gws
	}

	// The kill schedule rides the first provider's outcome stream: every
	// KillEvery completed rounds, the next victim's connections die.
	var obsMu sync.Mutex
	observed := make(map[string][]core.RoundOutcome, cfg.Auctions)
	completed, nextVictim := 0, 0
	onOutcome := func(name string, out core.RoundOutcome) {
		obsMu.Lock()
		observed[name] = append(observed[name], out)
		completed++
		kill := cfg.KillEvery > 0 && completed%cfg.KillEvery == 0
		var victim wire.NodeID
		if kill {
			victim = victims[nextVictim%len(victims)]
			nextVictim++
		}
		obsMu.Unlock()
		if kill {
			fn.Kill(victim)
		}
	}

	markets := make([]*market.Market, m)
	for i, id := range providerIDs {
		conn, err := net.Attach(id)
		if err != nil {
			return ChaosResult{}, err
		}
		mopts := []market.Option{market.WithAdmissionWindow(window), market.WithSweepEvery(0)}
		if i == 0 {
			mopts = append(mopts, market.WithOnOutcome(onOutcome))
		}
		mk, err := market.Open(conn, providerIDs, mopts...)
		if err != nil {
			return ChaosResult{}, err
		}
		defer mk.Close()
		markets[i] = mk
		for j, name := range names {
			_, err := mk.OpenAuction(market.AuctionSpec{
				Name:  name,
				Lane:  uint32(j + 1),
				Users: userIDs,
				Options: []core.SessionOption{
					core.WithK(cfg.K),
					core.WithMechanismName("double"),
					core.WithBidWindow(10 * time.Second),
					core.WithRoundTimeout(timeout),
					core.WithRoundLimit(uint64(cfg.Rounds)),
					core.WithMaxConcurrentRounds(pipeline),
					core.WithProviderBid(w.providers[j][i]),
					core.WithOutcomeBuffer(cfg.Rounds),
				},
				Enforce: &market.EnforceTarget{
					Ledger:   ledgers[i][j],
					Gateways: newGateways(),
					Escrow:   escrow,
					TTL:      time.Hour,
				},
			})
			if err != nil {
				return ChaosResult{}, err
			}
		}
	}

	sessions := make([][]*core.BidderSession, n) // [user][auction]
	for i, id := range userIDs {
		conn, err := net.Attach(id)
		if err != nil {
			return ChaosResult{}, err
		}
		mb, err := market.NewBidder(conn, providerIDs)
		if err != nil {
			return ChaosResult{}, err
		}
		defer mb.Close()
		sessions[i] = make([]*core.BidderSession, cfg.Auctions)
		for j, name := range names {
			s, err := mb.JoinLane(name, uint32(j+1),
				core.WithRoundLimit(uint64(cfg.Rounds)),
				core.WithOutcomeBuffer(pipeline+1),
				core.WithRoundTimeout(timeout))
			if err != nil {
				return ChaosResult{}, err
			}
			sessions[i][j] = s
		}
	}

	_, elapsed, err := runClosedLoop(sessions, w.bids, cfg.Rounds, lookahead)
	if err != nil {
		return ChaosResult{}, err
	}

	// Every committee member must finish consuming (and settling) every
	// round before the journals are comparable.
	want := int64(cfg.Auctions * cfg.Rounds)
	for i, mk := range markets {
		if !waitFor(timeout, func() bool { return mk.Stats().Rounds >= want }) {
			return ChaosResult{}, fmt.Errorf("harness: provider %d consumed %d of %d rounds before deadline",
				i, mk.Stats().Rounds, want)
		}
	}

	// (1) Cross-provider journal equality, per auction.
	for j, name := range names {
		ref := ledgers[0][j].Journal()
		for i := 1; i < m; i++ {
			if got := ledgers[i][j].Journal(); !reflect.DeepEqual(got, ref) {
				return ChaosResult{}, fmt.Errorf("harness: %s: provider %d journal diverges from provider 1 (%d vs %d entries)",
					name, providerIDs[i], len(got), len(ref))
			}
		}
	}

	// (2) Replay equality: re-settle the observed outcome stream serially
	// through a fresh Enforcer; the journal must reproduce exactly.
	obsMu.Lock()
	defer obsMu.Unlock()
	res := ChaosResult{Duration: elapsed}
	for j, name := range names {
		replayLed := newLedger()
		replayer := &gateway.Enforcer{
			Ledger:   replayLed,
			Gateways: newGateways(),
			Escrow:   escrow,
			TTL:      time.Hour,
		}
		outs := observed[name]
		if len(outs) != cfg.Rounds {
			return ChaosResult{}, fmt.Errorf("harness: %s: observed %d of %d outcomes", name, len(outs), cfg.Rounds)
		}
		for _, out := range outs {
			res.Rounds++
			if out.Err != nil {
				res.Aborted++
				res.AbortCodes[proto.AbortCodeOf(out.Err)]++
				continue
			}
			res.Accepted++
			if err := replayer.Enforce(out.Round, out.Outcome, userIDs, providerIDs); err != nil {
				return ChaosResult{}, fmt.Errorf("harness: %s: replay round %d: %w", name, out.Round, err)
			}
		}
		if got, want := ledgers[0][j].Journal(), replayLed.Journal(); !reflect.DeepEqual(got, want) {
			return ChaosResult{}, fmt.Errorf("harness: %s: live journal (%d entries) != serial replay (%d entries)",
				name, len(got), len(want))
		}
	}
	res.Faults = fn.FaultStats()
	res.Link = markets[0].Stats().Link
	return res, nil
}
