package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distauction"
	"distauction/internal/transport"
	"distauction/internal/transport/faultnet"
)

// auctionPlan is one auction of a deployment: its pinned placement, its
// committee's bids and, on enforcing workloads, its enforcement target.
type auctionPlan struct {
	name      string
	shard     int
	local     uint32
	committee []distauction.NodeID
	providers []distauction.ProviderBid
	group     string // settle group ("" outside tcp-fed-settle)
	book      int    // index into deployment.books, -1 when not enforced
	gateways  []*distauction.Gateway
}

// book is one funded ledger and the auctions that enforce into it.
type book struct {
	ledger   *distauction.Ledger
	supply   distauction.Fixed
	auctions []int // members, in name order (the settler's prepare order)

	// On a settle group, mu and moved guard done (per member, the last round
	// whose outcome callback fired) and through, the last round every member
	// has reported, i.e. the last round the group settled.
	mu      sync.Mutex
	moved   *sync.Cond
	done    []uint64
	through uint64
}

// observe records member j's outcome callback for round r.
func (b *book) observe(j int, r uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	through := r
	for k, m := range b.auctions {
		if m == j {
			b.done[k] = r
		}
		through = min(through, b.done[k])
	}
	if through > b.through {
		b.through = through
		b.moved.Broadcast()
	}
}

// await blocks until the group has settled round r.
func (b *book) await(r uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.through < r {
		b.moved.Wait()
	}
}

// settledThrough is the last round the group settled.
func (b *book) settledThrough() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.through
}

// outcomeLog is what the federation's outcome callback saw for one auction,
// in emission order. Only that auction's consumer goroutine appends; it is
// read after the deployment is drained or closed.
type outcomeLog struct {
	rounds []uint64
	at     []int64 // unix nanoseconds when the callback fired
	ok     []bool
	outs   []distauction.RoundOutcome // enforced auctions only, for the replay check
}

// deployment is one workload deployed through the distauction façade.
type deployment struct {
	w      *workload
	seed   uint64
	traced bool

	net    transport.Network
	timed  *timedNet
	faults *faultnet.Network
	link   *transport.ResilientNetwork
	fed    *distauction.Federation

	shards  []distauction.ShardSpec
	users   []distauction.NodeID
	plans   []auctionPlan
	index   map[string]int
	books   []*book
	victims []distauction.NodeID

	bidders  []*distauction.FederationBidder
	sessions [][]*distauction.BidderSession // [auction][user]

	logs []outcomeLog
	// starts holds each round's start per auction at [r-1]: bidder 0's
	// submit time.
	starts    [][]int64
	completed atomic.Int64
	// liveMax is the most live reservations seen on one gateway (sampled in
	// traced runs only: the sampling takes gateway locks).
	liveMax atomic.Int64
}

// deploy builds the network, opens the federation and its auctions, and
// joins every bidder to every auction. Sessions run until teardown.
func deploy(w *workload, seed uint64, traced bool) (d *deployment, err error) {
	d = &deployment{w: w, seed: seed, traced: traced, index: make(map[string]int)}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()

	var providers []distauction.NodeID
	for s := 0; s < w.shards; s++ {
		committee := make([]distauction.NodeID, committeeSize)
		for i := range committee {
			committee[i] = distauction.NodeID(s*committeeSize + i + 1)
		}
		providers = append(providers, committee...)
		d.shards = append(d.shards, distauction.ShardSpec{Index: s + 1, Providers: committee})
	}
	for i := 0; i < numUsers; i++ {
		d.users = append(d.users, distauction.NodeID(firstUser+i))
	}
	d.victims = append(append(d.victims, providers...), d.users...)
	d.buildNetwork(providers)
	d.planAuctions()

	d.fed, err = distauction.OpenFederation(d.net, d.shards,
		distauction.WithFederationMarketOptions(
			distauction.WithAdmissionWindow(admissionWindow),
			distauction.WithSweepEvery(0)),
		distauction.WithFederationOnOutcome(d.onOutcome))
	if err != nil {
		return d, fmt.Errorf("open federation: %w", err)
	}
	for j := range d.plans {
		if err := d.openAuction(j); err != nil {
			return d, err
		}
	}
	return d, d.joinBidders()
}

func (d *deployment) buildNetwork(providers []distauction.NodeID) {
	switch d.w.net {
	case hubNet:
		d.net = distauction.NewHub(distauction.CommunityNetModel(), int64(d.seed))
	case tcpNet:
		members := append(append([]distauction.NodeID(nil), providers...), d.users...)
		d.net = distauction.NewTCPNetwork(distauction.TCPNetworkConfig{
			Members: members,
			Secret:  []byte(fmt.Sprintf("perfbench-secret-%d", d.seed)),
		})
	case chaosNet:
		d.faults = faultnet.Wrap(distauction.NewHub(distauction.CommunityNetModel(), int64(d.seed)), faultnet.Config{
			Seed:     int64(d.seed),
			Default:  faultnet.Profile{Drop: chaosDrop},
			Blackout: chaosBlackout,
		})
		// Heartbeats and a retransmission timeout fast enough to mask a 30 ms
		// blackout within a few rounds, yet above the ack delay of a
		// CPU-saturated host (a 15 ms timeout there resends most frames
		// spuriously and can collapse into a resend storm); a resend buffer
		// deep enough that sustained superframe traffic never evicts an
		// unacked frame.
		d.link = transport.Resilient(d.faults, transport.ResilientConfig{
			HeartbeatEvery: 25 * time.Millisecond,
			ResendAfter:    100 * time.Millisecond,
			SuspectAfter:   8,
			DeadAfter:      40,
			MaxUnacked:     1 << 16,
		})
		d.net = d.link
	}
	if d.traced {
		isProvider := make(map[distauction.NodeID]bool, len(providers))
		for _, id := range providers {
			isProvider[id] = true
		}
		d.timed = &timedNet{inner: d.net, providers: isProvider}
		d.net = d.timed
	}
}

// planAuctions places auctions round-robin over the shards on pinned lanes
// and, on enforcing workloads, funds their ledgers. On tcp-fed-settle the
// auctions at the same position on each shard form one settle group.
func (d *deployment) planAuctions() {
	w := d.w
	perShard := w.auctions / w.shards
	for j := 0; j < w.auctions; j++ {
		p := auctionPlan{
			name:      fmt.Sprintf("a%02d-%03d", j%w.shards+1, j/w.shards),
			shard:     j%w.shards + 1,
			local:     uint32(j/w.shards + 1),
			providers: providerBids(d.seed, j),
			book:      -1,
		}
		p.committee = d.shards[p.shard-1].Providers
		if w.settle {
			p.group = fmt.Sprintf("pair-%03d", j/w.shards)
		}
		d.index[p.name] = j
		d.plans = append(d.plans, p)
	}
	switch {
	case w.settle:
		for g := 0; g < perShard; g++ {
			b := d.newBook()
			for s := 0; s < w.shards; s++ {
				b.auctions = append(b.auctions, g*w.shards+s)
			}
			b.moved = sync.NewCond(&b.mu)
			b.done = make([]uint64, len(b.auctions))
			d.books = append(d.books, b)
		}
	case w.enforce:
		for j := range d.plans {
			b := d.newBook()
			b.auctions = []int{j}
			d.books = append(d.books, b)
		}
	}
	for bi, b := range d.books {
		for _, j := range b.auctions {
			d.plans[j].book = bi
			for _, id := range d.plans[j].committee {
				d.plans[j].gateways = append(d.plans[j].gateways, distauction.NewGateway(id, gatewayCapacity))
			}
		}
	}
	d.logs = make([]outcomeLog, len(d.plans))
}

// Gateways are provisioned so that no reservation can fail: a failed
// reservation would be a capacity-planning artefact, not a settlement fault.
var (
	gatewayCapacity = distauction.Fx(1e9)
	userFunds       = distauction.Fx(1e7)
)

func (d *deployment) newBook() *book {
	l := distauction.NewLedger()
	l.Open(escrow)
	for _, id := range d.users {
		l.Open(id)
		if err := l.Deposit(id, userFunds); err != nil {
			panic(err) // a fresh ledger cannot overflow
		}
	}
	for _, s := range d.shards {
		for _, id := range s.Providers {
			l.Open(id)
		}
	}
	return &book{ledger: l, supply: l.TotalSupply()}
}

func (d *deployment) openAuction(j int) error {
	p := &d.plans[j]
	opts := []distauction.Option{
		distauction.WithK(coalition),
		distauction.WithMechanismName("double"),
		distauction.WithBidWindow(bidWindow),
		distauction.WithRoundTimeout(roundTimeout),
		distauction.WithMaxConcurrentRounds(depth),
		distauction.WithOutcomeBuffer(outcomeBuffer),
	}
	spec := distauction.FederatedAuctionSpec{
		Name:      p.name,
		Shard:     p.shard,
		LocalLane: p.local,
		Users:     d.users,
		Options:   opts,
		MemberOptions: func(i int, _ distauction.NodeID) []distauction.Option {
			return []distauction.Option{distauction.WithProviderBid(p.providers[i])}
		},
		SettleGroup: p.group,
	}
	if p.book >= 0 {
		spec.Enforce = &distauction.EnforceTarget{
			Ledger:   d.books[p.book].ledger,
			Gateways: p.gateways,
			Escrow:   escrow,
			TTL:      reservationTTL,
		}
	}
	if err := d.fed.OpenAuction(spec); err != nil {
		return fmt.Errorf("open auction %s: %w", p.name, err)
	}
	return nil
}

// joinBidders attaches every user once and joins it to every auction with
// JoinOn: the auctions are pinned, and a pinned auction must be joined on
// its pinned placement.
func (d *deployment) joinBidders() error {
	opts := []distauction.Option{
		distauction.WithOutcomeBuffer(outcomeBuffer),
		distauction.WithRoundTimeout(roundTimeout),
	}
	d.sessions = make([][]*distauction.BidderSession, len(d.plans))
	for j := range d.sessions {
		d.sessions[j] = make([]*distauction.BidderSession, len(d.users))
	}
	for i, id := range d.users {
		conn, err := d.net.Attach(id)
		if err != nil {
			return fmt.Errorf("attach user %d: %w", id, err)
		}
		b, err := distauction.OpenFederationBidder(conn, d.shards)
		if err != nil {
			_ = conn.Close()
			return fmt.Errorf("bidder %d: %w", id, err)
		}
		d.bidders = append(d.bidders, b)
		for j, p := range d.plans {
			s, err := b.JoinOn(p.name, p.shard, p.local, opts...)
			if err != nil {
				return fmt.Errorf("bidder %d join %s: %w", id, p.name, err)
			}
			d.sessions[j][i] = s
		}
	}
	return nil
}

// onOutcome is the federation's outcome callback: it fires once per round
// of every auction, on the committee's first member, after settlement.
func (d *deployment) onOutcome(name string, _ int, out distauction.RoundOutcome) {
	now := time.Now().UnixNano()
	j := d.index[name]
	log := &d.logs[j]
	log.rounds = append(log.rounds, out.Round)
	log.at = append(log.at, now)
	log.ok = append(log.ok, out.Err == nil)
	p := &d.plans[j]
	if p.group != "" {
		d.books[p.book].observe(j, out.Round)
	}
	if p.book >= 0 {
		log.outs = append(log.outs, out)
		if d.traced {
			for _, g := range p.gateways {
				storeMax(&d.liveMax, int64(g.Live()))
			}
		}
	}
	if d.faults != nil {
		if n := d.completed.Add(1); n%chaosKillEvery == 0 {
			d.faults.Kill(d.victims[int(n/chaosKillEvery)%len(d.victims)])
		}
	}
}

// close tears the deployment down: the federation first, so the ⊥ results
// of rounds still open reach live bidders (over TCP a send to a closed
// bidder would redial until its dial budget ran out), then the bidders,
// then the network.
func (d *deployment) close() error {
	var errs []error
	if d.fed != nil {
		errs = append(errs, d.fed.Close())
	}
	for _, b := range d.bidders {
		errs = append(errs, b.Close())
	}
	if d.net != nil {
		errs = append(errs, d.net.Close())
	}
	return errors.Join(errs...)
}

// storeMax raises m to v if v is larger.
func storeMax(m *atomic.Int64, v int64) {
	for cur := m.Load(); v > cur && !m.CompareAndSwap(cur, v); cur = m.Load() {
	}
}
