package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"distauction"
	"distauction/internal/trace"
)

// The traced run's envelopes per frame must stay within these factors of
// the untraced run's. The coalescer batches whatever senders meet in it, so
// the slower traced run batches somewhat more, never less; a wrapper that
// hid BatchConn would instead drop every workload to exactly 1.
const (
	minEnvsPerFrameRatio = 0.9
	maxEnvsPerFrameRatio = 1.35
)

// perLayer runs the workload untraced for half the window, then traced for
// the whole window, and reports the traced run's per-layer metrics. The gap
// between the two runs' rounds_per_s is the tracing overhead; the untraced
// run's batching is the reference the wrapper must not disturb.
func perLayer(stdout io.Writer, w *workload, seed uint64, span time.Duration, res *result, checks *[]error) error {
	base, err := measure(w, seed, span/2, false, 1, checks)
	if err != nil {
		return fmt.Errorf("untraced run: %w", err)
	}
	t, err := measure(w, seed, span, true, 1, checks)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	res.Attempted = base.res.attempted + t.res.attempted
	res.Failed = base.failures() + t.failures()

	table, err := attribute(t.res.profile)
	if err != nil {
		return err
	}
	if table.total == 0 || table.sum() != table.total {
		*checks = append(*checks, fmt.Errorf("layer table holds %d of %d CPU samples", table.sum(), table.total))
	}

	lo, hi := &t.res.lo, &t.res.hi
	rounds := float64(t.res.accepted)
	secs := t.res.window().Seconds()
	cpuUS := float64(hi.cpu-lo.cpu) / 1e3
	perRound := func(v float64) float64 { return v / rounds }
	wire := hi.wire.sub(lo.wire)
	link := hi.link
	link.Resends -= lo.link.Resends
	link.DupsDropped -= lo.link.DupsDropped
	link.Heartbeats -= lo.link.Heartbeats

	wrapperEPF := ratio(wire.provEnvs, wire.provFrames)
	muxEPF := muxOccupancy(lo.fed, hi.fed)
	baseEPF := muxOccupancy(base.res.lo.fed, base.res.hi.fed)
	if math.Abs(wrapperEPF-muxEPF) > 0.01*muxEPF {
		*checks = append(*checks, fmt.Errorf("wrapper saw %.4f envelopes/frame, the mux counted %.4f in the same run", wrapperEPF, muxEPF))
	}
	if r := wrapperEPF / baseEPF; !(r >= minEnvsPerFrameRatio && r <= maxEnvsPerFrameRatio) {
		*checks = append(*checks, fmt.Errorf("traced run batched %.3f envelopes/frame, untraced %.3f: the wrapper changed batching", wrapperEPF, baseEPF))
	}

	ph := t.res.phases
	ms := func(p trace.Phase) float64 { return ph.p50[p] / 1e6 }
	us := func(p trace.Phase) float64 { return ph.p50[p] / 1e3 }
	baseRPS, tracedRPS := base.roundsPerSec(), t.roundsPerSec()

	m := map[string]metric{
		"runtime.allocs_per_round":         {perRound(float64(hi.rt.allocs - lo.rt.allocs)), "count"},
		"runtime.gc_cpu_share":             {ratioF(hi.rt.gcCPU-lo.rt.gcCPU, hi.rt.cpu-lo.rt.cpu), "ratio"},
		"runtime.sched_latency_p99_us":     {schedQuantile(lo.rt, hi.rt, 0.99) * 1e6, "us"},
		"runtime.cpu_share":                {table.share(runtimeLayer), "ratio"},
		"process.cpu_util":                 {cpuUS / 1e6 / (secs * float64(runtime.GOMAXPROCS(0))), "ratio"},
		"transport.envs_per_frame":         {wrapperEPF, "count"},
		"transport.frames_per_round":       {perRound(float64(wire.frames)), "count"},
		"transport.bytes_per_round":        {perRound(float64(hi.net.BytesSent - lo.net.BytesSent)), "B"},
		"transport.send_busy_us_per_round": {perRound(float64(wire.sendNanos) / 1e3), "us"},
		"proto.ingest_busy_us_per_round":   {perRound(float64(wire.ingestNanos) / 1e3), "us"},
		"phase.bid_collect_p50_ms":         {ms(trace.PhaseBidCollect), "ms"},
		"phase.agree_commit_p50_ms":        {ms(trace.PhaseAgreeCommit), "ms"},
		"phase.agree_echo_p50_ms":          {ms(trace.PhaseAgreeEcho), "ms"},
		"phase.agree_reveal_p50_ms":        {ms(trace.PhaseAgreeReveal), "ms"},
		"phase.agree_vector_count":         {float64(ph.count[trace.PhaseAgreeVector]), "count"},
		"phase.task_p50_us":                {us(trace.PhaseTask), "us"},
		"phase.settle_reserve_p50_us":      {us(trace.PhaseSettleReserve), "us"},
		"phase.settle_commit_p50_us":       {us(trace.PhaseSettleCommit), "us"},
		"settle.latency_p99_us":            {float64(hi.fed.SettleLatency.Quantile(0.99)) / 1e3, "us"},
		"gateway.live_reservations_max":    {float64(t.d.liveMax.Load()), "count"},
		"bench.traced_rounds_per_s":        {tracedRPS, "1/s"},
		"bench.trace_overhead":             {1 - tracedRPS/baseRPS, "ratio"},
		"link.resends_per_kround":          {perRound(float64(link.Resends)) * 1e3, "count"},
		"link.dups_per_kround":             {perRound(float64(link.DupsDropped)) * 1e3, "count"},
		"link.heartbeats_per_s":            {float64(link.Heartbeats) / secs, "1/s"},
		"faults.dropped":                   {float64(hi.faults.Dropped - lo.faults.Dropped), "count"},
		"faults.kills":                     {float64(hi.faults.Kills - lo.faults.Kills), "count"},
		"total.cpu_us_per_round":           {perRound(cpuUS), "us"},
	}
	layerUS := func(samples int64) float64 { return perRound(cpuUS) * ratio(samples, table.total) }
	for _, l := range reportedLayers {
		m[l+".cpu_us_per_round"] = metric{layerUS(table.samples[l]), "us"}
	}
	m["other.cpu_us_per_round"] = metric{layerUS(table.other()), "us"}
	res.Metrics = m

	fmt.Fprintf(stdout, "traced window %.3fs: %d rounds accepted (untraced %.1f/s, traced %.1f/s); %d CPU samples\n",
		secs, t.res.accepted, baseRPS, tracedRPS, table.total)
	fmt.Fprintf(stdout, "envelopes per frame: wrapper %.3f, traced mux %.3f, untraced mux %.3f\n", wrapperEPF, muxEPF, baseEPF)
	fmt.Fprintf(stdout, "%-16s %12s %8s\n", "layer", "us/round", "share")
	var shares float64
	for _, l := range table.layers() {
		shares += table.share(l)
		fmt.Fprintf(stdout, "%-16s %12.2f %7.2f%%\n", l, layerUS(table.samples[l]), 100*table.share(l))
	}
	fmt.Fprintf(stdout, "%-16s %12.2f %7.2f%%\n", "total", perRound(cpuUS), 100*shares)
	return nil
}

// muxOccupancy is the providers' mux envelopes per outbound frame between
// two federation snapshots.
func muxOccupancy(lo, hi distauction.FederationSnapshot) float64 {
	var envs, frames int64
	for k := range hi.PerNode {
		envs += hi.PerNode[k].EnvelopesSent
		frames += hi.PerNode[k].FramesSent
		if k < len(lo.PerNode) {
			envs -= lo.PerNode[k].EnvelopesSent
			frames -= lo.PerNode[k].FramesSent
		}
	}
	return ratio(envs, frames)
}

func ratio(a, b int64) float64 { return ratioF(float64(a), float64(b)) }

func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
