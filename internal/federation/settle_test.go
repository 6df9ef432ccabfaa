package federation

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"distauction/internal/auction"
	"distauction/internal/core"
	"distauction/internal/fixed"
	"distauction/internal/gateway"
	"distauction/internal/ledger"
	"distauction/internal/market"
	"distauction/internal/wire"
)

const settleEscrow wire.NodeID = 999

// outcome1x1 crafts a deterministic one-user one-provider outcome: the user
// gets alloc units and pays pay, all of which goes to the provider.
func outcome1x1(alloc, pay float64) auction.Outcome {
	o := auction.Outcome{Alloc: auction.NewAllocation(1, 1), Pay: auction.NewPayments(1, 1)}
	o.Alloc.Set(0, 0, fixed.MustFloat(alloc))
	o.Pay.ByUser[0] = fixed.MustFloat(pay)
	o.Pay.ToProvider[0] = fixed.MustFloat(pay)
	return o
}

// twoShardSettler wires the canonical cross-shard fixture: ONE shared
// ledger, one user (1001) bidding on two single-provider shards — provider
// 1 behind gwA (auction "fed-a"), provider 2 behind gwB ("fed-b") — both
// auctions in settle group "cross".
func twoShardSettler(t *testing.T, userFunds float64) (*Settler, *ledger.Ledger, *gateway.Gateway, *gateway.Gateway) {
	t.Helper()
	led := ledger.New()
	led.Open(settleEscrow)
	led.Open(1001)
	led.Open(1)
	led.Open(2)
	if userFunds > 0 {
		if err := led.Deposit(1001, fixed.MustFloat(userFunds)); err != nil {
			t.Fatal(err)
		}
	}
	gwA := gateway.New(1, fixed.MustFloat(100), nil)
	gwB := gateway.New(2, fixed.MustFloat(100), nil)
	s := NewSettler()
	s.AddMember("cross", "fed-a",
		market.EnforceTarget{Ledger: led, Gateways: []*gateway.Gateway{gwA}, Escrow: settleEscrow, TTL: time.Hour},
		[]wire.NodeID{1001}, []wire.NodeID{1})
	s.AddMember("cross", "fed-b",
		market.EnforceTarget{Ledger: led, Gateways: []*gateway.Gateway{gwB}, Escrow: settleEscrow, TTL: time.Hour},
		[]wire.NodeID{1001}, []wire.NodeID{2})
	return s, led, gwA, gwB
}

// TestSettlerCommitsAtomically: a user wins on both shards in one round.
// Nothing settles until the group's barrier completes; then both legs
// commit together and the journal equals a serial per-leg Settle replay.
func TestSettlerCommitsAtomically(t *testing.T) {
	s, led, gwA, gwB := twoShardSettler(t, 100)
	supply := led.TotalSupply()

	outA := core.RoundOutcome{Round: 1, Outcome: outcome1x1(2, 10)}
	outB := core.RoundOutcome{Round: 1, Outcome: outcome1x1(3, 5)}

	if err := s.Observe("cross", "fed-a", outA); err != nil {
		t.Fatal(err)
	}
	// Half the group reported: nothing may have settled yet.
	if s.Commits() != 0 || gwA.Live() != 0 || led.Balance(1001) != fixed.MustFloat(100) {
		t.Fatalf("settled before barrier: commits=%d live=%d balance=%v",
			s.Commits(), gwA.Live(), led.Balance(1001))
	}
	if err := s.Observe("cross", "fed-b", outB); err != nil {
		t.Fatal(err)
	}
	if s.Commits() != 1 || s.Aborts() != 0 {
		t.Fatalf("commits=%d aborts=%d", s.Commits(), s.Aborts())
	}
	if got := led.Balance(1001); got != fixed.MustFloat(85) {
		t.Fatalf("user balance = %v, want 85", got)
	}
	if led.Balance(1) != fixed.MustFloat(10) || led.Balance(2) != fixed.MustFloat(5) {
		t.Fatalf("provider balances = %v, %v", led.Balance(1), led.Balance(2))
	}
	if gwA.Live() != 1 || gwB.Live() != 1 {
		t.Fatalf("reservations: A=%d B=%d", gwA.Live(), gwB.Live())
	}
	if got := led.TotalSupply(); got != supply {
		t.Fatalf("supply changed: %v -> %v", supply, got)
	}
	if led.Holds() != 0 {
		t.Fatalf("leaked holds: %d", led.Holds())
	}

	// Journal replay-equality: a serial schedule — the legs settled one
	// after the other in name order — produces the identical journal.
	replay := ledger.New()
	replay.Open(settleEscrow)
	replay.Open(1001)
	replay.Open(1)
	replay.Open(2)
	if err := replay.Deposit(1001, fixed.MustFloat(100)); err != nil {
		t.Fatal(err)
	}
	for i, out := range []core.RoundOutcome{outA, outB} {
		transfers, err := ledger.OutcomeTransfers(out.Outcome,
			[]wire.NodeID{1001}, []wire.NodeID{wire.NodeID(i + 1)}, settleEscrow)
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.Settle(out.Round, transfers); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(led.Journal(), replay.Journal()) {
		t.Fatalf("journal diverges from serial replay:\n%v\nvs\n%v", led.Journal(), replay.Journal())
	}
}

// TestSettlerInsufficientFundsReleasesFirstLeg is the abort path of the
// issue: the user can afford ONE win but won on both shards. Reserve
// succeeds on shard A, fails on shard B with insufficient funds — so A's
// staged reservation and fenced payment are released and the round moves
// no money anywhere.
func TestSettlerInsufficientFundsReleasesFirstLeg(t *testing.T) {
	s, led, gwA, gwB := twoShardSettler(t, 12)
	supply := led.TotalSupply()

	if err := s.Observe("cross", "fed-a", core.RoundOutcome{Round: 1, Outcome: outcome1x1(1, 10)}); err != nil {
		t.Fatal(err)
	}
	err := s.Observe("cross", "fed-b", core.RoundOutcome{Round: 1, Outcome: outcome1x1(1, 10)})
	if !errors.Is(err, ledger.ErrInsufficientFunds) {
		t.Fatalf("want insufficient funds, got %v", err)
	}
	if s.Aborts() != 1 || s.Commits() != 0 {
		t.Fatalf("commits=%d aborts=%d", s.Commits(), s.Aborts())
	}
	if got := led.Balance(1001); got != fixed.MustFloat(12) {
		t.Fatalf("user balance = %v, want full refund of 12", got)
	}
	if led.Balance(1) != 0 || led.Balance(2) != 0 {
		t.Fatalf("providers paid on aborted round: %v, %v", led.Balance(1), led.Balance(2))
	}
	if gwA.Live() != 0 || gwB.Live() != 0 {
		t.Fatalf("reservations survived abort: A=%d B=%d", gwA.Live(), gwB.Live())
	}
	if len(led.Journal()) != 0 {
		t.Fatalf("aborted round journaled %d entries", len(led.Journal()))
	}
	if led.Holds() != 0 || led.HeldFunds() != 0 {
		t.Fatalf("leaked holds: %d (%v fenced)", led.Holds(), led.HeldFunds())
	}
	if got := led.TotalSupply(); got != supply {
		t.Fatalf("supply changed: %v -> %v", supply, got)
	}

	// The next round, affordable on one shard only because the other is ⊥,
	// settles fine: the abort left no residue.
	if err := s.Observe("cross", "fed-a", core.RoundOutcome{Round: 2, Outcome: outcome1x1(1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe("cross", "fed-b", core.RoundOutcome{Round: 2, Err: errors.New("aborted")}); err != nil {
		t.Fatal(err)
	}
	if s.Commits() != 1 {
		t.Fatalf("commits=%d after recovery round", s.Commits())
	}
	if got := led.Balance(1001); got != fixed.MustFloat(2) {
		t.Fatalf("user balance = %v, want 2", got)
	}
}

// TestSettlerBotLegContributesNothing: a ⊥ outcome on one shard neither
// blocks nor pays — the other legs still settle atomically among
// themselves, and an all-⊥ round settles nothing.
func TestSettlerBotLegContributesNothing(t *testing.T) {
	s, led, gwA, gwB := twoShardSettler(t, 100)

	if err := s.Observe("cross", "fed-a", core.RoundOutcome{Round: 1, Err: errors.New("aborted")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe("cross", "fed-b", core.RoundOutcome{Round: 1, Outcome: outcome1x1(1, 7)}); err != nil {
		t.Fatal(err)
	}
	if s.Commits() != 1 || s.Aborts() != 0 {
		t.Fatalf("commits=%d aborts=%d", s.Commits(), s.Aborts())
	}
	if got := led.Balance(1001); got != fixed.MustFloat(93) {
		t.Fatalf("user balance = %v, want 93", got)
	}
	if gwA.Live() != 0 || gwB.Live() != 1 {
		t.Fatalf("reservations: A=%d B=%d", gwA.Live(), gwB.Live())
	}

	// All-⊥ round: the barrier completes but there is nothing to settle.
	journaled := len(led.Journal())
	if err := s.Observe("cross", "fed-a", core.RoundOutcome{Round: 2, Err: errors.New("aborted")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe("cross", "fed-b", core.RoundOutcome{Round: 2, Err: errors.New("aborted")}); err != nil {
		t.Fatal(err)
	}
	if s.Commits() != 1 || s.Aborts() != 0 || len(led.Journal()) != journaled {
		t.Fatalf("all-⊥ round settled something: commits=%d aborts=%d journal=%d",
			s.Commits(), s.Aborts(), len(led.Journal()))
	}
}

// TestSettlerRemoveMemberPrunesPendingRounds: closing an auction whose
// outcome already sits in a pending round must neither dereference the
// departed member when that round completes nor strand rounds it alone was
// gating. Its reported outcomes are pruned; a round that removal completes
// settles at once; later rounds settle over the remaining members.
func TestSettlerRemoveMemberPrunesPendingRounds(t *testing.T) {
	s, led, gwA, gwB := twoShardSettler(t, 100)
	supply := led.TotalSupply()

	if err := s.Observe("cross", "fed-a", core.RoundOutcome{Round: 1, Outcome: outcome1x1(2, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe("cross", "fed-b", core.RoundOutcome{Round: 2, Outcome: outcome1x1(3, 5)}); err != nil {
		t.Fatal(err)
	}
	// fed-a closes: its round-1 leg is pruned, and round 2, which waited
	// only on fed-a, settles fed-b's leg now.
	if err := s.RemoveMember("cross", "fed-a"); err != nil {
		t.Fatal(err)
	}
	if s.Commits() != 1 || gwB.Live() != 1 {
		t.Fatalf("round completed by removal did not settle: commits=%d live=%d", s.Commits(), gwB.Live())
	}
	if err := s.Observe("cross", "fed-b", core.RoundOutcome{Round: 1, Outcome: outcome1x1(3, 5)}); err != nil {
		t.Fatal(err)
	}
	if s.Commits() != 2 || s.Aborts() != 0 {
		t.Fatalf("commits=%d aborts=%d", s.Commits(), s.Aborts())
	}
	if got := led.Balance(1001); got != fixed.MustFloat(90) {
		t.Fatalf("user balance = %v, want 90 (the pruned leg must not pay)", got)
	}
	if gwA.Live() != 0 || gwB.Live() != 2 {
		t.Fatalf("reservations: A=%d B=%d", gwA.Live(), gwB.Live())
	}
	if got := led.TotalSupply(); got != supply {
		t.Fatalf("supply changed: %v -> %v", supply, got)
	}
	if led.Holds() != 0 {
		t.Fatalf("leaked holds: %d", led.Holds())
	}
}

// TestSettlerConcurrentGroupsConserveSupply hammers one shared ledger from
// many groups settling in parallel (run with -race): every round commits or
// aborts whole, and total supply never drifts.
func TestSettlerConcurrentGroupsConserveSupply(t *testing.T) {
	const groups, rounds = 4, 50
	led := ledger.New()
	led.Open(settleEscrow)
	s := NewSettler()
	type groupRig struct {
		name string
		user wire.NodeID
		gws  [2]*gateway.Gateway
	}
	rigs := make([]groupRig, groups)
	for gi := range rigs {
		user := wire.NodeID(2001 + gi)
		led.Open(user)
		if err := led.Deposit(user, fixed.MustFloat(1e6)); err != nil {
			t.Fatal(err)
		}
		rig := groupRig{name: fmt.Sprintf("group-%d", gi), user: user}
		for leg := 0; leg < 2; leg++ {
			prov := wire.NodeID(100 + gi*2 + leg)
			led.Open(prov)
			rig.gws[leg] = gateway.New(prov, fixed.MustFloat(1e6), nil)
			s.AddMember(rig.name, fmt.Sprintf("auction-%d-%d", gi, leg),
				market.EnforceTarget{Ledger: led, Gateways: []*gateway.Gateway{rig.gws[leg]}, Escrow: settleEscrow, TTL: time.Hour},
				[]wire.NodeID{user}, []wire.NodeID{prov})
		}
		rigs[gi] = rig
	}
	supply := led.TotalSupply()

	var wg sync.WaitGroup
	for gi := range rigs {
		for leg := 0; leg < 2; leg++ {
			wg.Add(1)
			go func(gi, leg int) {
				defer wg.Done()
				for r := uint64(1); r <= rounds; r++ {
					err := s.Observe(rigs[gi].name, fmt.Sprintf("auction-%d-%d", gi, leg),
						core.RoundOutcome{Round: r, Outcome: outcome1x1(1, 0.5)})
					if err != nil {
						t.Errorf("group %d leg %d round %d: %v", gi, leg, r, err)
						return
					}
				}
			}(gi, leg)
		}
	}
	wg.Wait()

	if got := s.Commits(); got != groups*rounds {
		t.Fatalf("commits = %d, want %d", got, groups*rounds)
	}
	if got := led.TotalSupply(); got != supply {
		t.Fatalf("supply drifted: %v -> %v", supply, got)
	}
	if led.Holds() != 0 {
		t.Fatalf("leaked holds: %d", led.Holds())
	}
	for _, rig := range rigs {
		// rounds × (pay 0.5 on each of 2 legs)
		want := fixed.MustFloat(1e6 - 2*0.5*rounds)
		if got := led.Balance(rig.user); got != want {
			t.Fatalf("user %d balance = %v, want %v", rig.user, got, want)
		}
	}
}
