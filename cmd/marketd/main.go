// Command marketd runs the marketplace layer: many named auctions
// multiplexed over one shared transport attachment per node.
//
// Two modes:
//
//   - Hub demo (-hub): a self-contained in-process marketplace — a
//     federation of -shards committees of m providers (one committee by
//     default: the unsharded market), the named auctions, n bidders joined
//     to every auction — runs -rounds rounds per auction over the
//     in-memory Hub, prints the per-auction and per-shard statistics and
//     exits. This is the quickest way to see the layer work (and what CI
//     smoke-tests):
//
//     marketd -hub -auctions alpha,beta -rounds 3
//     marketd -hub -shards 2 -auctions alpha,beta,gamma -rounds 3
//
//   - TCP daemon (default): one provider's Market over real sockets, the
//     marketplace sibling of gatewayd. All providers run it with the same
//     deployment facts; bidders join by auction name from their own
//     processes:
//
//     marketd -id 1 -listen :7001 \
//     -providers '1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003' \
//     -users '100,101' -k 1 -auctions alpha,beta \
//     -cost 1.5 -capacity 10 -rounds 10 -secret communitynet
//
// Auctions are comma-separated names, each optionally pinning a lane as
// name:lane (lanes otherwise derive deterministically from the name). In
// hub mode the lane is shard-local, at most 255.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"distauction/internal/auction"
	"distauction/internal/cliutil"
	"distauction/internal/core"
	"distauction/internal/federation"
	"distauction/internal/fixed"
	"distauction/internal/market"
	"distauction/internal/metrics"
	"distauction/internal/trace"
	"distauction/internal/transport"
	"distauction/internal/transport/faultnet"
	"distauction/internal/wire"
	"distauction/internal/workload"
)

func main() {
	hubMode := flag.Bool("hub", false, "run a self-contained in-memory marketplace demo and exit")
	auctionsFlag := flag.String("auctions", "alpha,beta", "auction names, comma separated (name or name:lane)")
	rounds := flag.Uint64("rounds", 3, "rounds per auction (0 = until interrupted; hub mode requires > 0)")
	k := flag.Int("k", 1, "coalition bound")
	pipeline := flag.Int("pipeline", 2, "rounds in flight per auction")
	bidWindow := flag.Duration("bid-window", 5*time.Second, "bid collection window")
	roundTimeout := flag.Duration("round-timeout", 2*time.Minute, "per-round deadline")

	// Hub demo knobs.
	m := flag.Int("m", 3, "hub mode: number of providers per shard committee")
	n := flag.Int("n", 4, "hub mode: number of bidders (joined to every auction)")
	seed := flag.Uint64("seed", 1, "hub mode: workload seed")
	shards := flag.Int("shards", 1, "hub mode: partition the catalog over this many provider committees")
	chaos := flag.Bool("chaos", false, "hub mode: inject transport faults (frame drops + periodic conn kills) under the resilience layer")
	chaosDrop := flag.Float64("chaos-drop", 0.01, "chaos: per-frame drop probability on every link")
	chaosKill := flag.Duration("chaos-kill", 2*time.Second, "chaos: kill one node's connections at this interval, round-robin (0 = never)")

	// TCP daemon knobs.
	id := flag.Uint("id", 0, "tcp mode: this provider's node id")
	listen := flag.String("listen", ":0", "tcp mode: listen address")
	providersFlag := flag.String("providers", "", "tcp mode: provider set, id=host:port comma separated")
	usersFlag := flag.String("users", "", "tcp mode: user bidder ids, comma separated")
	cost := flag.String("cost", "1", "tcp mode: own unit cost (double auction)")
	capacity := flag.String("capacity", "10", "tcp mode: own capacity (double auction)")
	secret := flag.String("secret", "", "tcp mode: shared master secret for HMAC keys")

	// Runtime observability knobs (both modes).
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	statsEvery := flag.Duration("runtime-stats", 0, "print a runtime stats line (heap, goroutines, GC) at this interval (0 = off)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus /metrics and /debug/trace on this address (empty = off)")
	traceOn := flag.Bool("trace", true, "record round-pipeline spans and the flight recorder")
	slowRound := flag.Duration("slow-round", 0, "flight-dump rounds slower than this (0 = aborts only)")
	flag.Parse()

	startDiagnostics(*pprofAddr, *statsEvery)
	trace.SetEnabled(*traceOn)
	trace.SetSlowRound(*slowRound)

	var plan *chaosPlan
	if *chaos {
		plan = &chaosPlan{drop: *chaosDrop, kill: *chaosKill}
	}
	specs, err := parseAuctions(*auctionsFlag)
	if err == nil {
		if plan != nil && !*hubMode {
			err = fmt.Errorf("-chaos requires -hub (TCP deployments get real faults for free)")
		} else if *hubMode {
			err = runDemo(specs, *shards, *m, *n, *k, *pipeline, *rounds, *seed, *bidWindow, *roundTimeout, *metricsAddr, plan)
		} else {
			err = runTCP(specs, uint32(*id), *listen, *providersFlag, *usersFlag, *k, *pipeline,
				*rounds, *cost, *capacity, *bidWindow, *roundTimeout, *secret, *metricsAddr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "marketd:", err)
		os.Exit(1)
	}
}

// holdForScrape keeps a finished hub demo alive until interrupted when an
// export plane is being served, so scrapers (and the CI smoke) can read the
// final /metrics and /debug/trace of the completed run.
func holdForScrape(metricsAddr string) {
	if metricsAddr == "" {
		return
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	fmt.Println("marketd: run complete; serving metrics until interrupted")
	s := <-sigs
	fmt.Printf("marketd: %v: shutting down\n", s)
}

// startDiagnostics wires the optional runtime observability: a pprof HTTP
// endpoint (profiles pick up the session/taskgraph worker labels) and a
// periodic one-line runtime stats print. Both run for the life of the
// process — marketd exits by returning from main, so neither needs a stop
// path.
func startDiagnostics(pprofAddr string, statsEvery time.Duration) {
	if pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "marketd: pprof:", err)
			}
		}()
		fmt.Printf("marketd: pprof on http://%s/debug/pprof/\n", pprofAddr)
	}
	if statsEvery > 0 {
		go func() {
			tick := time.NewTicker(statsEvery)
			defer tick.Stop()
			for range tick.C {
				fmt.Fprintln(os.Stderr, "marketd:", metrics.ReadRuntime().String())
			}
		}()
	}
}

// namedLane is one -auctions entry: a name with an optional pinned lane.
type namedLane struct {
	name string
	lane uint32
}

func parseAuctions(s string) ([]namedLane, error) {
	var specs []namedLane
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		nl := namedLane{name: part}
		if name, laneStr, ok := strings.Cut(part, ":"); ok {
			lane, err := strconv.ParseUint(laneStr, 10, 32)
			if err != nil || lane == 0 || lane > wire.MaxLane {
				return nil, fmt.Errorf("auction %q: lane must be in [1,%d]", part, wire.MaxLane)
			}
			nl = namedLane{name: name, lane: uint32(lane)}
		}
		specs = append(specs, nl)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no auctions given")
	}
	return specs, nil
}

// sessionOpts are the provider-side session options every auction of a
// run shares; each provider adds its own core.WithProviderBid.
func sessionOpts(k, pipeline int, rounds uint64, bidWindow, roundTimeout time.Duration) []core.SessionOption {
	opts := []core.SessionOption{
		core.WithK(k),
		core.WithMechanismName("double"),
		core.WithBidWindow(bidWindow),
		core.WithRoundTimeout(roundTimeout),
		core.WithMaxConcurrentRounds(pipeline),
	}
	if rounds > 0 {
		opts = append(opts, core.WithRoundLimit(rounds), core.WithOutcomeBuffer(int(min(rounds, 1024))))
	}
	return opts
}

// chaosPlan is the -chaos flag group: frame drops plus a round-robin
// connection killer, injected beneath the resilience layer so the demo
// exercises the heartbeat/ARQ machinery instead of aborting.
type chaosPlan struct {
	drop float64
	kill time.Duration
}

// wrap stacks faultnet and the resilience layer over the demo hub and
// starts the killer. The returned network owns the whole stack (its Close
// closes the hub too); stop halts the killer.
func (p *chaosPlan) wrap(hub *transport.Hub, seed uint64, victims []wire.NodeID) (transport.Network, func()) {
	fn := faultnet.Wrap(hub, faultnet.Config{
		Seed:    int64(seed),
		Default: faultnet.Profile{Drop: p.drop},
	})
	net := transport.Resilient(fn, transport.ResilientConfig{})
	stop := func() {}
	if p.kill > 0 && len(victims) > 0 {
		done := make(chan struct{})
		go func() {
			tick := time.NewTicker(p.kill)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				case <-tick.C:
					fn.Kill(victims[i%len(victims)])
				}
			}
		}()
		var once sync.Once
		stop = func() { once.Do(func() { close(done) }) }
	}
	fmt.Printf("marketd: chaos on — %.2g%% frame drop, conn-kill every %v\n", p.drop*100, p.kill)
	return net, stop
}

// runDemo is the self-contained hub demo over the in-memory Hub with the
// community-network latency model: the catalog partitioned over `shards`
// disjoint provider committees of m nodes each behind one federated
// façade (one shard is the unsharded market), bidders joined through one
// attachment apiece.
func runDemo(specs []namedLane, shards, m, n, k, pipeline int, rounds, seed uint64,
	bidWindow, roundTimeout time.Duration, metricsAddr string, chaos *chaosPlan) error {
	if rounds == 0 {
		return fmt.Errorf("hub mode needs -rounds > 0")
	}
	if shards > federation.MaxShards {
		return fmt.Errorf("-shards %d exceeds the %d-shard lane band", shards, federation.MaxShards)
	}
	hub := transport.NewHub(transport.CommunityNetModel(), int64(seed))

	fedSpecs := make([]federation.ShardSpec, shards)
	var committeeIDs []wire.NodeID
	for s := range fedSpecs {
		committee := make([]wire.NodeID, m)
		for i := range committee {
			committee[i] = wire.NodeID(s*m + i + 1)
		}
		fedSpecs[s] = federation.ShardSpec{Index: s + 1, Providers: committee}
		committeeIDs = append(committeeIDs, committee...)
	}
	userIDs := make([]wire.NodeID, n)
	for i := range userIDs {
		userIDs[i] = wire.NodeID(1001 + i)
	}

	var net transport.Network = hub
	if chaos != nil {
		wrapped, stop := chaos.wrap(hub, seed, append(committeeIDs, userIDs...))
		defer stop()
		net = wrapped
	}
	defer net.Close()

	// The demo bidders submit every round's bid up front, so the admission
	// window must span the whole run or the tail rounds degrade to neutral
	// bids (a paced client would track the outcome stream instead).
	window := int(min(rounds+uint64(pipeline)+2, 1<<20))
	fed, err := federation.Open(net, fedSpecs,
		federation.WithMarketOptions(market.WithAdmissionWindow(window)))
	if err != nil {
		return err
	}
	defer fed.Close()

	insts := make([]workload.DoubleAuctionInstance, len(specs))
	for j, nl := range specs {
		if nl.lane > federation.MaxLocalLane {
			return fmt.Errorf("auction %q: sharded lanes are local, max %d", nl.name, federation.MaxLocalLane)
		}
		inst := workload.NewDoubleAuction(seed+uint64(j)*104729, n, m)
		insts[j] = inst
		err := fed.OpenAuction(federation.AuctionSpec{
			Name:      nl.name,
			LocalLane: nl.lane, // 0 derives; placement is routed
			Users:     userIDs,
			Options:   sessionOpts(k, pipeline, rounds, bidWindow, roundTimeout),
			MemberOptions: func(i int, _ wire.NodeID) []core.SessionOption {
				return []core.SessionOption{core.WithProviderBid(inst.Providers[i])}
			},
		})
		if err != nil {
			return err
		}
	}
	fmt.Printf("marketd: hub demo — %d auctions over %d shard(s) × %d providers, %d bidders, %d rounds each\n",
		len(specs), shards, m, n, rounds)
	if metricsAddr != "" {
		stop, err := startExporter(metricsAddr, exporter{fed: fed.Stats})
		if err != nil {
			return err
		}
		defer stop()
	}

	var wg sync.WaitGroup
	errCh := make(chan error, n*len(specs))
	for i, uid := range userIDs {
		conn, err := net.Attach(uid)
		if err != nil {
			return err
		}
		fb, err := federation.NewBidder(conn, fedSpecs)
		if err != nil {
			return err
		}
		defer fb.Close()
		for j, nl := range specs {
			shard, lane, err := fed.Place(nl.name)
			if err != nil {
				return err
			}
			_, local := federation.SplitLane(lane)
			s, err := fb.JoinOn(nl.name, shard, local,
				core.WithRoundLimit(rounds),
				core.WithRoundTimeout(roundTimeout))
			if err != nil {
				return err
			}
			wg.Add(1)
			go func(i, j int, name string, s *core.BidderSession) {
				defer wg.Done()
				for r := uint64(1); r <= rounds; r++ {
					if err := s.Submit(r, insts[j].Users[i]); err != nil {
						errCh <- fmt.Errorf("%s: submit: %w", name, err)
						return
					}
				}
				seen := uint64(0)
				for out := range s.Outcomes() {
					seen++
					if out.Err != nil {
						errCh <- fmt.Errorf("%s round %d: %w", name, out.Round, out.Err)
						return
					}
				}
				if seen != rounds {
					errCh <- fmt.Errorf("%s: saw %d of %d rounds", name, seen, rounds)
				}
			}(i, j, nl.name, s)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}

	// Wait for every committee member's consumer, then print the rollup.
	want := int64(len(specs)) * int64(rounds) * int64(m)
	deadline := time.Now().Add(roundTimeout)
	for time.Now().Before(deadline) {
		var got int64
		for _, ns := range fed.Stats().PerNode {
			got += ns.Rounds
		}
		if got >= want {
			break
		}
		time.Sleep(time.Millisecond)
	}
	printFederationStats(fed.Stats())
	printFlightDumps()
	holdForScrape(metricsAddr)
	return nil
}

// printFederationStats renders the per-auction table (as the first member
// of each shard counts them) and the per-shard rollup table.
func printFederationStats(snap federation.Snapshot) {
	fmt.Print(metrics.Table(auctionHeader, auctionRows(snap.PerAuction)))

	rows := make([]metrics.Row, 0, len(snap.PerShard)+1)
	for _, ss := range snap.PerShard {
		health := "ok"
		if !ss.Healthy {
			health = "DEGRADED"
		}
		rows = append(rows, metrics.Row{Label: fmt.Sprintf("shard %d", ss.Shard), Cols: []string{
			fmt.Sprintf("%d", len(ss.Committee)),
			fmt.Sprintf("%d", ss.Auctions),
			fmt.Sprintf("%d", ss.Rounds),
			fmt.Sprintf("%d", ss.Accepted),
			fmt.Sprintf("%d", ss.Aborted),
			fmt.Sprintf("%.1f", ss.RoundsPerSec),
			fmt.Sprintf("%d", ss.BidsDropped),
			fmt.Sprintf("%.2f", ss.Saturation),
			health,
		}})
	}
	rows = append(rows, metrics.Row{Label: "TOTAL", Cols: []string{
		"-",
		fmt.Sprintf("%d", snap.Auctions),
		fmt.Sprintf("%d", snap.Rounds),
		fmt.Sprintf("%d", snap.Accepted),
		fmt.Sprintf("%d", snap.Aborted),
		fmt.Sprintf("%.1f", snap.RoundsPerSec),
		fmt.Sprintf("%d", snap.BidsDropped),
		"-",
		"-",
	}})
	fmt.Print(metrics.Table(
		metrics.Row{Label: "shard", Cols: []string{"m", "auctions", "rounds", "ok", "⊥", "r/s", "dropped", "sat", "health"}},
		rows))
	if snap.SettleCommits+snap.SettleAborts+snap.SettleErrs > 0 {
		fmt.Printf("cross-shard settle: %d committed, %d aborted, %d errors\n",
			snap.SettleCommits, snap.SettleAborts, snap.SettleErrs)
	}
}

// auctionHeader heads the per-auction tables.
var auctionHeader = metrics.Row{Label: "auction", Cols: []string{"lane", "rounds", "ok", "⊥", "r/s", "admitted", "dropped", "queue"}}

// auctionRows renders one table row per auction.
func auctionRows(auctions []market.AuctionSnapshot) []metrics.Row {
	rows := make([]metrics.Row, 0, len(auctions)+1)
	for _, a := range auctions {
		rows = append(rows, metrics.Row{Label: a.Name, Cols: []string{
			fmt.Sprintf("%d", a.Lane),
			fmt.Sprintf("%d", a.Rounds),
			fmt.Sprintf("%d", a.Accepted),
			fmt.Sprintf("%d", a.Aborted),
			fmt.Sprintf("%.1f", a.RoundsPerSec),
			fmt.Sprintf("%d", a.BidsAdmitted),
			fmt.Sprintf("%d", a.BidsDropped),
			fmt.Sprintf("%d", a.QueueDepth),
		}})
	}
	return rows
}

func printStats(snap market.Snapshot) {
	rows := append(auctionRows(snap.Auctions), metrics.Row{Label: "TOTAL", Cols: []string{
		"-",
		fmt.Sprintf("%d", snap.Rounds),
		fmt.Sprintf("%d", snap.Accepted),
		fmt.Sprintf("%d", snap.Aborted),
		fmt.Sprintf("%.1f", snap.RoundsPerSec),
		fmt.Sprintf("%d", snap.BidsAdmitted),
		fmt.Sprintf("%d", snap.BidsDropped),
		fmt.Sprintf("%d", snap.QueueDepth),
	}})
	fmt.Print(metrics.Table(auctionHeader, rows))
}

// runTCP is one provider's market daemon over real sockets.
func runTCP(specs []namedLane, id uint32, listen, providersFlag, usersFlag string,
	k, pipeline int, rounds uint64, cost, capacity string,
	bidWindow, roundTimeout time.Duration, secret, metricsAddr string) error {

	peerAddrs, providerIDs, err := cliutil.ParseAddrMap(providersFlag)
	if err != nil {
		return fmt.Errorf("providers: %w", err)
	}
	userIDs, err := cliutil.ParseIDList(usersFlag)
	if err != nil {
		return fmt.Errorf("users: %w", err)
	}
	c, err := fixed.Parse(cost)
	if err != nil {
		return fmt.Errorf("cost: %w", err)
	}
	cap_, err := fixed.Parse(capacity)
	if err != nil {
		return fmt.Errorf("capacity: %w", err)
	}
	self := wire.NodeID(id)
	network, conn, err := cliutil.DialTCP(self, listen, peerAddrs,
		append(append([]wire.NodeID{}, providerIDs...), userIDs...), secret)
	if err != nil {
		return err
	}
	defer network.Close()

	mk, err := market.Open(conn, providerIDs,
		market.WithOnOutcome(func(name string, out core.RoundOutcome) {
			if out.Err == nil {
				fmt.Printf("%s round %d: accepted, paid=%v\n", name, out.Round, out.Outcome.Pay.TotalPaid())
			} else {
				fmt.Printf("%s round %d: ⊥: %v\n", name, out.Round, out.Err)
			}
		}))
	if err != nil {
		return err
	}
	defer mk.Close()
	bid := auction.ProviderBid{Cost: c, Capacity: cap_}
	for _, nl := range specs {
		_, err := mk.OpenAuction(market.AuctionSpec{
			Name:    nl.name,
			Lane:    nl.lane,
			Users:   userIDs,
			Options: append(sessionOpts(k, pipeline, rounds, bidWindow, roundTimeout), core.WithProviderBid(bid)),
		})
		if err != nil {
			return err
		}
	}
	fmt.Printf("marketd: provider %d serving %d auctions (m=%d, k=%d): %s\n",
		id, len(specs), len(providerIDs), k, strings.Join(names(specs), ", "))
	if metricsAddr != "" {
		stop, err := startExporter(metricsAddr, exporter{market: mk.Stats})
		if err != nil {
			return err
		}
		defer stop()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if rounds > 0 {
		// Finite run: wait until every auction's rounds completed (or an
		// interrupt), then print the stats table.
		want := int64(len(specs)) * int64(rounds)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for mk.Stats().Rounds < want {
			select {
			case s := <-sigs:
				return shutdownMarket(mk, specs, s, roundTimeout)
			case <-tick.C:
			}
		}
		printStats(mk.Stats())
		printFlightDumps()
		return nil
	}
	return shutdownMarket(mk, specs, <-sigs, roundTimeout)
}

// shutdownMarket is the graceful SIGINT/SIGTERM path: stop admitting, let
// every auction's in-flight rounds complete (bounded by the round timeout),
// then report the final stats and whatever the flight recorder holds. The
// deferred Close in runTCP tears the transport down afterwards.
func shutdownMarket(mk *market.Market, specs []namedLane, s os.Signal, roundTimeout time.Duration) error {
	fmt.Printf("marketd: %v: draining %d auction(s)\n", s, len(specs))
	// Snapshot before draining: DrainAuction removes each auction from the
	// market, and removed auctions no longer contribute to Stats().
	snap := mk.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	for _, nl := range specs {
		if err := mk.DrainAuction(ctx, nl.name); err != nil {
			fmt.Printf("marketd: drain %s: %v\n", nl.name, err)
		}
	}
	printStats(snap)
	printFlightDumps()
	return nil
}

func names(specs []namedLane) []string {
	out := make([]string, len(specs))
	for i, nl := range specs {
		out[i] = nl.name
	}
	return out
}
