// Command perfbench is the repository benchmark. It deploys one named
// workload of the distributed auctioneer through the distauction façade's
// federation API, derives every input from --seed, drives the load for
// --seconds, checks the outputs, and prints the metrics as one JSON line.
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload untraced for half the window as a
// reference, then traced, and prints the per-layer metrics: the traced run wraps the transport, records the
// program's spans, reads its exported counters and runtime/metrics, and
// attributes a CPU profile to layers by package. Run it from the repository
// root with perfbench/run.sh, which builds it from the checkout's sources.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times an untraced run deploys its workload; setup_s
// is their median, and the first deployment is the one measured.
const setupRuns = 21

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 10, "length of the measurement window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout)
	}
	w := lookupWorkload(*name)
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload in %v or all, --seconds > 0, --trace 0|1\n", names)
		return 2
	}
	span := time.Duration(*seconds * float64(time.Second))

	h := fingerprint()
	hj, _ := json.Marshal(h) // plain struct of strings and ints
	fmt.Fprintf(stdout, "host %s\n", hj)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d: %s\n", w.name, *seed, *seconds, *traceFlag, w.why)

	var (
		res    result
		checks []error
		err    error
	)
	if h.GOMAXPROCS > h.NProc {
		checks = append(checks, fmt.Errorf("GOMAXPROCS %d exceeds nproc %d", h.GOMAXPROCS, h.NProc))
	}
	if *traceFlag == 0 {
		err = endToEnd(stdout, w, *seed, span, &res, &checks)
	} else {
		err = perLayer(stdout, w, *seed, span, &res, &checks)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.Correct = len(checks) == 0
	for _, c := range checks {
		fmt.Fprintf(stdout, "CHECK FAILED: %v\n", c)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload with the same flags, each in its own process
// so that no run inherits another's heap or goroutines, and fails if any
// run fails.
func runAll(args []string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(slices.Clone(args), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// measured is one deployment's run and its checks.
type measured struct {
	d      *deployment
	res    runResult
	setups []time.Duration
}

// warmup runs before the window opens, so that pools, buffers and
// connections are in steady state when measuring starts.
func warmup(span time.Duration) time.Duration { return min(2*time.Second, span/2) }

// measure deploys w, runs the load, tears the deployment down and checks
// the outputs. It then deploys and tears down setups-1 more times, so that
// setup_s is a median; those deployments come after the measured run, which
// thus starts in a fresh process.
func measure(w *workload, seed uint64, span time.Duration, traced bool, setups int, checks *[]error) (*measured, error) {
	warm := warmup(span)
	m := &measured{}
	setup := func() (*deployment, error) {
		began := time.Now()
		d, err := deploy(w, seed, traced)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(began))
		return d, nil
	}
	var err error
	if m.d, err = setup(); err != nil {
		return nil, err
	}
	profile := ""
	if traced {
		dir := filepath.Join(".bench_build", "profiles")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		profile = filepath.Join(dir, fmt.Sprintf("%s-%d.pprof", w.name, seed))
	}
	err = errors.Join(m.d.runClosed(&m.res, warm, span, profile), m.d.close())
	if err != nil {
		return nil, err
	}
	if m.res.accepted == 0 {
		return nil, errors.New("no round was accepted in the window")
	}
	for len(m.setups) < setups {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		if err := d.close(); err != nil {
			return nil, fmt.Errorf("teardown: %w", err)
		}
	}
	m.d.settledSamples(&m.res)
	if err := checkResolve(seed, m.d.plans, m.res.resolve); err != nil {
		*checks = append(*checks, err)
	}
	if err := m.d.checkBooks(); err != nil {
		*checks = append(*checks, err)
	}
	if w.net == chaosNet {
		f := m.res.hi.faults
		if f.Dropped-m.res.lo.faults.Dropped <= 0 || f.Kills-m.res.lo.faults.Kills <= 0 {
			*checks = append(*checks, fmt.Errorf("fault injector idle in the window: %+v", f))
		}
	}
	return m, nil
}

// failures counts the window's failed rounds: rounds bidder 0 saw as ⊥ or
// never saw, plus every bid an admission gate or the mux dropped and every
// settlement or enforcement error, each charged as one failed round.
func (m *measured) failures() int {
	lo, hi := m.res.lo.fed, m.res.hi.fed
	var dropped int64
	for k := range hi.PerNode {
		dropped += hi.PerNode[k].BidsDropped + hi.PerNode[k].ParkedDropped
		if k < len(lo.PerNode) {
			dropped -= lo.PerNode[k].BidsDropped + lo.PerNode[k].ParkedDropped
		}
	}
	settle := (hi.SettleErrs - lo.SettleErrs) + (hi.SettleAborts - lo.SettleAborts) + (hi.EnforceErrs - lo.EnforceErrs)
	return m.res.attempted - m.res.accepted + int(dropped+settle)
}

// sliceRates returns, per one-second slice of the window, the rate at which
// accepted outcomes reached the bidders and the process CPU per such round.
// Reporting their medians keeps a transient disturbance of the host inside
// one slice from moving a run's figure.
func (m *measured) sliceRates() (perSec, cpuPerRound []float64) {
	arrivals := slices.Clone(m.res.arrivals)
	slices.Sort(arrivals)
	ticks := m.res.ticks
	for k := 1; k < len(ticks); k++ {
		lo, _ := slices.BinarySearch(arrivals, ticks[k-1].at)
		hi, _ := slices.BinarySearch(arrivals, ticks[k].at)
		n := float64(hi - lo)
		perSec = append(perSec, n/(float64(ticks[k].at-ticks[k-1].at)/1e9))
		if n > 0 {
			cpuPerRound = append(cpuPerRound, float64(ticks[k].cpu-ticks[k-1].cpu)/n)
		}
	}
	return perSec, cpuPerRound
}

// roundsPerSec is the median slice rate at which accepted outcomes reached
// the bidders.
func (m *measured) roundsPerSec() float64 {
	perSec, _ := m.sliceRates()
	return medianF(perSec)
}

func endToEnd(stdout io.Writer, w *workload, seed uint64, span time.Duration, res *result, checks *[]error) error {
	m, err := measure(w, seed, span, false, setupRuns, checks)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = m.res.attempted, m.failures()
	out, settled := m.res.outcome, m.res.settled
	perSec, cpu := m.sliceRates()
	fmt.Fprintf(stdout, "window %.3fs: %d rounds attempted, %d accepted; %d outcome and %d settled latency samples\n",
		m.res.window().Seconds(), m.res.attempted, m.res.accepted, len(out), len(settled))
	res.Metrics = map[string]metric{
		"rounds_per_s":     {medianF(perSec), "1/s"},
		"outcome_p50_ms":   {groupedQuantile(out, 0.50) / 1e6, "ms"},
		"outcome_p99_ms":   {groupedQuantile(out, 0.99) / 1e6, "ms"},
		"settled_p50_ms":   {groupedQuantile(settled, 0.50) / 1e6, "ms"},
		"settled_p99_ms":   {groupedQuantile(settled, 0.99) / 1e6, "ms"},
		"ok_ratio":         {1 - float64(res.Failed)/float64(res.Attempted), "ratio"},
		"cpu_ms_per_round": {medianF(cpu) / 1e6, "ms"},
		"rss_peak_mb":      {m.res.rssPeak / (1 << 20), "MiB"},
		"setup_s":          {median(m.setups).Seconds(), "s"},
	}
	return nil
}

// latencies returns the sample latencies in nanoseconds, sorted. A failed
// round counts as taking the whole round timeout, so it misses any latency
// limit the round could have met.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lat)
		if !s.ok {
			out[i] = float64(max(roundTimeout.Nanoseconds(), s.lat))
		}
	}
	slices.Sort(out)
	return out
}

// groupedQuantile is the median, over consecutive groups of the samples in
// key order, of each group's q-quantile. Every group holds at least
// minGroup samples, so a group's p99 has ten samples beyond it; there are at
// most maxGroups. On a shared host latency comes in bursts (a stolen vCPU
// stalls every round in flight), and the median of group quantiles keeps
// one burst from setting a run's figure.
func groupedQuantile(ss []sample, q float64) float64 {
	const minGroup, maxGroups = 1000, 64
	ss = slices.Clone(ss)
	slices.SortFunc(ss, func(a, b sample) int { return cmp.Compare(a.key, b.key) })
	groups := max(1, min(maxGroups, len(ss)/minGroup))
	per := make([]float64, groups)
	for g := range per {
		per[g] = quantile(latencies(ss[g*len(ss)/groups:(g+1)*len(ss)/groups]), q)
	}
	return medianF(per)
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
