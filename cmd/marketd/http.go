package main

// The export plane: a small HTTP server publishing the marketplace's
// observability surfaces — Prometheus-text /metrics (counters, typed abort
// breakdowns, per-auction and per-shard latency quantiles, phase-duration
// quantiles) and /debug/trace (the flight recorder's ring contents and
// dumps as JSON). Everything is computed on demand from the same Stats()
// snapshots the tables print, so scraping costs nothing between requests.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"distauction/internal/federation"
	"distauction/internal/market"
	"distauction/internal/metrics"
	"distauction/internal/proto"
	"distauction/internal/trace"
	"distauction/internal/transport"
)

// exporter adapts whichever deployment is running — a TCP provider's own
// market or the hub demo's federation — to the export handlers. Exactly
// one source is non-nil.
type exporter struct {
	market func() market.Snapshot
	fed    func() federation.Snapshot
}

// quantiles reported for every latency summary.
var exportQuantiles = []struct {
	q     float64
	label string
}{{0.5, "0.5"}, {0.99, "0.99"}, {0.999, "0.999"}}

// startExporter serves /metrics and /debug/trace on addr and returns a
// shutdown func. The listener binds synchronously so a bad address fails
// startup instead of surfacing on first scrape.
func startExporter(addr string, ex exporter) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, ex)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeTrace(w)
	})
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Printf("marketd: metrics server: %v\n", err)
		}
	}()
	fmt.Printf("marketd: metrics on http://%s/metrics, flight recorder on /debug/trace\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}

// writeMetrics renders the Prometheus text exposition.
func writeMetrics(w io.Writer, ex exporter) {
	if ex.market != nil {
		snap := ex.market()
		writeCounter(w, "distauction_rounds_total", "Rounds completed across all auctions.", snap.Rounds)
		writeCounter(w, "distauction_rounds_accepted_total", "Non-bottom rounds.", snap.Accepted)
		writeCounter(w, "distauction_rounds_aborted_total", "Bottom rounds.", snap.Aborted)
		writeCounter(w, "distauction_bids_admitted_total", "Bids admitted by the gates.", snap.BidsAdmitted)
		writeCounter(w, "distauction_bids_dropped_total", "Bids dropped at the gates.", snap.BidsDropped)
		writeCounter(w, "distauction_frames_sent_total", "Outbound frames shipped by the coalescer.", snap.FramesSent)
		writeCounter(w, "distauction_envelopes_sent_total", "Envelopes those frames carried.", snap.EnvelopesSent)
		writeLink(w, snap.Link)
		writePeerHealthHeader(w)
		writePeerHealth(w, "", snap.PeerHealth)
		writeAbortCodes(w, "", snap.AbortCodes)
		writeOutcomeLatency(w, snap.Latency, snap.Auctions)
		writeRuntime(w, snap.Runtime)
	}
	if ex.fed != nil {
		snap := ex.fed()
		writeCounter(w, "distauction_rounds_total", "Rounds completed across all shards.", snap.Rounds)
		writeCounter(w, "distauction_rounds_accepted_total", "Non-bottom rounds.", snap.Accepted)
		writeCounter(w, "distauction_rounds_aborted_total", "Bottom rounds.", snap.Aborted)
		writeCounter(w, "distauction_bids_admitted_total", "Bids admitted by the gates.", snap.BidsAdmitted)
		writeCounter(w, "distauction_bids_dropped_total", "Bids dropped at the gates.", snap.BidsDropped)
		var frames, envelopes int64
		for _, ns := range snap.PerNode {
			frames += ns.FramesSent
			envelopes += ns.EnvelopesSent
		}
		writeCounter(w, "distauction_frames_sent_total", "Outbound frames shipped by the coalescers.", frames)
		writeCounter(w, "distauction_envelopes_sent_total", "Envelopes those frames carried.", envelopes)
		writeCounter(w, "distauction_settle_commits_total", "Cross-shard rounds settled atomically.", snap.SettleCommits)
		writeCounter(w, "distauction_settle_aborts_total", "Cross-shard rounds aborted and released.", snap.SettleAborts)
		writeLink(w, snap.Link)
		writeGauge(w, "distauction_peers_dead", "Peers some attachment currently judges dead.", int64(snap.DeadPeers))
		writePeerHealthHeader(w)
		for _, ns := range snap.PerNode {
			writePeerHealth(w, fmt.Sprintf(`node="%d",`, ns.Node), ns.PeerHealth)
		}
		writeAbortCodes(w, "", snap.AbortCodes)
		writeOutcomeLatency(w, snap.Latency, snap.PerAuction)
		fmt.Fprintln(w, "# HELP distauction_shard_outcome_latency_seconds Per-shard outcome latency.")
		fmt.Fprintln(w, "# TYPE distauction_shard_outcome_latency_seconds summary")
		writeSummary(w, "distauction_shard_outcome_latency_seconds", `shard="_all"`, snap.Latency)
		for _, ss := range snap.PerShard {
			writeSummary(w, "distauction_shard_outcome_latency_seconds", fmt.Sprintf(`shard="%d"`, ss.Shard), ss.Latency)
		}
		fmt.Fprintln(w, "# HELP distauction_settle_latency_seconds Two-phase settlement latency, barrier release to completion.")
		fmt.Fprintln(w, "# TYPE distauction_settle_latency_seconds summary")
		writeSummary(w, "distauction_settle_latency_seconds", "", snap.SettleLatency)
		writeRuntime(w, snap.Runtime)
	}

	// Phase-duration summaries come from the trace layer and fill in only
	// while tracing is on; the series still exist (at zero) when it is off,
	// so dashboards need no conditional queries.
	enabled := int64(0)
	if trace.Enabled() {
		enabled = 1
	}
	writeGauge(w, "distauction_trace_enabled", "1 while span tracing is on.", enabled)
	fmt.Fprintln(w, "# HELP distauction_phase_duration_seconds Span duration by round-pipeline phase (traced only).")
	fmt.Fprintln(w, "# TYPE distauction_phase_duration_seconds summary")
	durs := trace.PhaseDurations()
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		writeSummary(w, "distauction_phase_duration_seconds", fmt.Sprintf("phase=%q", ph.String()), durs[ph])
	}
	writeGauge(w, "distauction_trace_dumps", "Flight-recorder dumps retained.", int64(len(trace.Dumps())))
}

func writeCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writeGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

// writeLink emits the resilience layer's ARQ counters. All zero when no
// resilience layer is stacked under the deployment.
func writeLink(w io.Writer, ls transport.LinkStats) {
	writeCounter(w, "distauction_reconnects_total", "Dead peers that came back alive (reconnect-with-resume).", ls.Reconnects)
	writeCounter(w, "distauction_link_resends_total", "Unacked link frames resent.", ls.Resends)
	writeCounter(w, "distauction_link_dups_dropped_total", "Duplicate link frames absorbed by seq dedup.", ls.DupsDropped)
	writeCounter(w, "distauction_link_overflow_total", "Unacked frames evicted by a full resend buffer.", ls.Overflow)
}

func writePeerHealthHeader(w io.Writer) {
	fmt.Fprintln(w, "# HELP distauction_peer_health Failure-detector verdict per peer (1 = the labelled state).")
	fmt.Fprintln(w, "# TYPE distauction_peer_health gauge")
}

// writePeerHealth emits one gauge sample per peer an attachment's failure
// detector tracks, labelled by its current verdict; node, if non-empty, is
// a `node="…",` label prefix naming the attachment.
func writePeerHealth(w io.Writer, node string, peers []transport.PeerHealth) {
	for _, ph := range peers {
		fmt.Fprintf(w, "distauction_peer_health{%speer=\"%d\",state=%q} 1\n", node, ph.Peer, ph.State.String())
	}
}

// writeOutcomeLatency emits the outcome-latency summary family: the
// all-auctions merge plus one summary per auction.
func writeOutcomeLatency(w io.Writer, all metrics.HistogramSnapshot, auctions []market.AuctionSnapshot) {
	fmt.Fprintln(w, "# HELP distauction_outcome_latency_seconds Outcome latency, bid collection through delivery.")
	fmt.Fprintln(w, "# TYPE distauction_outcome_latency_seconds summary")
	writeSummary(w, "distauction_outcome_latency_seconds", `auction="_all"`, all)
	for _, as := range auctions {
		writeSummary(w, "distauction_outcome_latency_seconds", fmt.Sprintf("auction=%q", as.Name), as.Latency)
	}
}

// writeAbortCodes emits the typed ⊥ breakdown as one counter per cause.
func writeAbortCodes(w io.Writer, labels string, codes [proto.NumAbortCodes]int64) {
	fmt.Fprintln(w, "# HELP distauction_aborts_total Bottom rounds by typed cause.")
	fmt.Fprintln(w, "# TYPE distauction_aborts_total counter")
	for c := proto.AbortCode(0); c < proto.NumAbortCodes; c++ {
		sep := ""
		if labels != "" {
			sep = ","
		}
		fmt.Fprintf(w, "distauction_aborts_total{%s%scode=%q} %d\n", labels, sep, c.String(), codes[c])
	}
}

// writeSummary emits one histogram as a Prometheus summary: the export
// quantiles plus _sum and _count. Values are stored in nanoseconds;
// exported in seconds per convention.
func writeSummary(w io.Writer, name, labels string, h metrics.HistogramSnapshot) {
	for _, eq := range exportQuantiles {
		sep := ""
		if labels != "" {
			sep = ","
		}
		fmt.Fprintf(w, "%s{%s%squantile=%q} %g\n", name, labels, sep, eq.label,
			h.QuantileDuration(eq.q).Seconds())
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, suffix, time.Duration(h.Sum).Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.Count)
}

func writeRuntime(w io.Writer, rt metrics.RuntimeStats) {
	writeGauge(w, "distauction_goroutines", "Current goroutine count.", int64(rt.Goroutines))
	writeGauge(w, "distauction_heap_alloc_bytes", "Live heap bytes.", int64(rt.HeapAlloc))
	writeCounter(w, "distauction_gc_pause_ns_total", "Cumulative stop-the-world pause time.", int64(rt.PauseTotalNs))
}

// traceView is the /debug/trace response shape.
type traceView struct {
	Enabled bool          `json:"enabled"`
	Events  []trace.Event `json:"events"`
	Dumps   []trace.Dump  `json:"dumps"`
}

func writeTrace(w io.Writer) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(traceView{
		Enabled: trace.Enabled(),
		Events:  trace.Events(),
		Dumps:   trace.Dumps(),
	})
}

// printFlightDumps renders the flight recorder's retained dumps — the
// shutdown path's last words. Each dump names the round, its fate, and
// the attributed culprit and phase.
func printFlightDumps() {
	dumps := trace.Dumps()
	if len(dumps) == 0 {
		return
	}
	fmt.Printf("marketd: flight recorder: %d dump(s)\n", len(dumps))
	for _, d := range dumps {
		fate := "slow"
		if d.Aborted {
			fate = "aborted"
		}
		culprit := "unattributed"
		if d.Culprit != trace.NoPeer {
			culprit = fmt.Sprintf("peer %d", d.Culprit)
		}
		fmt.Printf("  round %d lane %d: %s after %v in phase %s (%s, code %d, %d events)\n",
			d.Round, d.Lane, fate, d.Dur.Round(time.Microsecond), d.Phase, culprit, d.Code, len(d.Events))
	}
}
