package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"distauction/internal/auction"
	"distauction/internal/core"
	"distauction/internal/federation"
	"distauction/internal/fixed"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// TestWriteMetricsFederation renders /metrics for a 1-shard federation —
// the hub demo's default deployment — and checks the series dashboards and
// the export smoke rely on: per-auction outcome latency, coalescer
// frames/envelopes, per-node peer health and the typed abort counters.
func TestWriteMetricsFederation(t *testing.T) {
	const rounds = 2
	net := transport.Resilient(transport.NewHub(transport.LatencyModel{}, 1), transport.ResilientConfig{})
	defer net.Close()
	shards := []federation.ShardSpec{{Index: 1, Providers: []wire.NodeID{1, 2, 3}}}
	fed, err := federation.Open(net, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	bid := auction.ProviderBid{Cost: fixed.One, Capacity: fixed.MustFloat(10)}
	if err := fed.OpenAuction(federation.AuctionSpec{
		Name:    "alpha",
		Users:   []wire.NodeID{1001},
		Options: append(sessionOpts(1, 2, rounds, time.Second, time.Minute), core.WithProviderBid(bid)),
	}); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Attach(1001)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := federation.NewBidder(conn, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	s, err := fb.Join("alpha", core.WithRoundLimit(rounds), core.WithRoundTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	for r := uint64(1); r <= rounds; r++ {
		if err := s.Submit(r, auction.UserBid{Value: fixed.MustFloat(2), Demand: fixed.One}); err != nil {
			t.Fatal(err)
		}
	}
	for out := range s.Outcomes() {
		if out.Err != nil {
			t.Fatalf("round %d: %v", out.Round, out.Err)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for fed.Stats().Rounds < rounds {
		if time.Now().After(deadline) {
			t.Fatal("federation never counted its rounds")
		}
		time.Sleep(time.Millisecond)
	}

	var buf bytes.Buffer
	writeMetrics(&buf, exporter{fed: fed.Stats})
	out := buf.String()
	for _, want := range []string{
		"\ndistauction_rounds_total 2\n",
		`distauction_outcome_latency_seconds{auction="_all",quantile="0.99"}`,
		`distauction_outcome_latency_seconds{auction="alpha",quantile="0.99"}`,
		"distauction_outcome_latency_seconds_count{auction=\"alpha\"} 2\n",
		"\ndistauction_frames_sent_total ",
		"\ndistauction_envelopes_sent_total ",
		`distauction_peer_health{node="1",peer="2",state=`,
		`distauction_aborts_total{code="equivocation"} 0`,
		`distauction_shard_outcome_latency_seconds{shard="1",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if strings.Contains(out, "\ndistauction_frames_sent_total 0\n") {
		t.Error("frames counter is zero after a completed run")
	}
	if t.Failed() {
		t.Log(out)
	}
}
