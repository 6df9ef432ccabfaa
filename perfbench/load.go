package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"distauction"
	"distauction/internal/trace"
	"distauction/internal/transport"
	"distauction/internal/transport/faultnet"
)

// sample is one timed observation. key, its arrival time, places it inside
// or outside the measurement window.
type sample struct {
	key, lat int64 // unix nanoseconds, nanoseconds
	ok       bool
}

// sampledOutcome is a distributed outcome kept for the re-solve check.
type sampledOutcome struct {
	auction, round int
	out            distauction.Outcome
}

// probe is every reading taken at one edge of the measurement window.
type probe struct {
	at     time.Time
	cpu    time.Duration
	rt     runtimeSample
	net    transport.StatsSnapshot
	wire   wireSnapshot
	link   transport.LinkStats
	faults faultnet.Stats
	fed    distauction.FederationSnapshot
}

// runResult is one measured run of a deployment.
type runResult struct {
	lo, hi probe
	// attempted and accepted count the rounds whose key falls in the window,
	// as bidder 0 of each auction saw them.
	attempted, accepted int
	// arrivals are the times accepted outcomes reached bidder 0 of each
	// auction (unix nanoseconds), over the whole run.
	arrivals []int64
	// ticks splits the window into one-second slices: ticks[0] is the lo
	// probe, the last the hi probe.
	ticks            []tick
	outcome, settled []sample
	resolve          []sampledOutcome
	phases           phaseReading
	profile          string // CPU profile path (traced runs)
	// winLo and winHi bound the window's sample keys (unix nanoseconds).
	winLo, winHi int64
	// rssPeak is the process's peak resident set at the end of the window,
	// before teardown and the extra set-ups of setup_s allocate.
	rssPeak float64
}

// tick is a reading at a slice boundary of the window.
type tick struct {
	at  int64 // unix nanoseconds
	cpu time.Duration
}

func (r *runResult) window() time.Duration { return r.hi.at.Sub(r.lo.at) }

func (r *runResult) inWindow(key int64) bool { return key >= r.winLo && key < r.winHi }

func (d *deployment) probe() probe {
	p := probe{at: time.Now(), cpu: processCPU(), rt: readRuntime(), net: d.net.Stats(), fed: d.fed.Stats()}
	if d.timed != nil {
		p.wire = d.timed.c.snapshot()
	}
	if d.link != nil {
		p.link = d.link.LinkStats()
	}
	if d.faults != nil {
		p.faults = d.faults.FaultStats()
	}
	return p
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureWindow sleeps until lo, opens the window, sleeps until hi and closes
// it. A traced run profiles the CPU and records spans inside the window only.
func (d *deployment) measureWindow(res *runResult, lo, hi time.Time, profilePath string) error {
	time.Sleep(time.Until(lo))
	var prof *os.File
	if d.traced {
		f, err := os.Create(profilePath)
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		prof = f
		res.profile = profilePath
		// 500 Hz instead of the default 100 Hz: enough samples to split a
		// latency-bound run across layers. (The runtime warns on stderr that the
		// rate was set before the profile started; the rate still applies.)
		runtime.SetCPUProfileRate(500)
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return fmt.Errorf("cpu profile: %w", err)
		}
		trace.SetEnabled(true)
	}
	res.lo = d.probe()
	res.ticks = append(res.ticks[:0], tick{res.lo.at.UnixNano(), res.lo.cpu})
	n := max(1, int(hi.Sub(lo)/time.Second))
	for k := 1; k < n; k++ {
		time.Sleep(time.Until(lo.Add(hi.Sub(lo) * time.Duration(k) / time.Duration(n))))
		res.ticks = append(res.ticks, tick{time.Now().UnixNano(), processCPU()})
	}
	time.Sleep(time.Until(hi))
	res.hi = d.probe()
	res.rssPeak = peakRSS()
	res.ticks = append(res.ticks, tick{res.hi.at.UnixNano(), res.hi.cpu})
	if d.traced {
		trace.SetEnabled(false)
		pprof.StopCPUProfile()
		res.phases = readPhases()
		if err := prof.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	return nil
}

// waitOrTimeout waits for wg, giving up after limit.
func waitOrTimeout(wg *sync.WaitGroup, limit time.Duration, what string) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(limit):
		return fmt.Errorf("%s did not finish within %v", what, limit)
	}
}

const drainLimit = 45 * time.Second

// closedAuction gates one auction's closed-loop submissions so that the run
// can stop on a round every bidder of the auction submits: stop freezes the
// limit at the highest round already submitted, and bidders still behind
// catch up to it.
type closedAuction struct {
	mu        sync.Mutex
	limit     uint64
	submitted uint64
}

func (a *closedAuction) admit(r uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r > a.limit {
		return false
	}
	a.submitted = max(a.submitted, r)
	return true
}

func (a *closedAuction) last() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.limit
}

func (a *closedAuction) stop() {
	a.mu.Lock()
	a.limit = a.submitted
	a.mu.Unlock()
}

// runClosed drives the closed loop: every bidder of every auction keeps
// lookahead rounds of bids outstanding and submits the next round as each
// result arrives. The window covers outcomes that arrive in [warm, warm+span).
func (d *deployment) runClosed(res *runResult, warm, span time.Duration, profilePath string) error {
	n := len(d.plans)
	// The auctions of a settle group share one gate, so that every member
	// stops on the same round and no settlement is left half reported at
	// teardown; their bidders submit a round only once the group settled the
	// round lookahead before it, so that members cannot drift apart and the
	// settler never holds more than lookahead rounds of one group.
	gates := make([]closedAuction, n)
	gateOf := func(j int) *closedAuction { return &gates[j] }
	if d.w.settle {
		gateOf = func(j int) *closedAuction { return &gates[d.plans[j].book] }
	}
	for j := range gates {
		gates[j].limit = math.MaxUint64
	}
	type worker struct {
		samples []sample
		resolve []sampledOutcome
		sent0   []int64 // bidder 0 only: submit time of round r at [r-1]
		err     error
	}
	workers := make([]worker, n*numUsers)
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		for i := 0; i < numUsers; i++ {
			wg.Add(1)
			go func(j, i int, w *worker) {
				defer wg.Done()
				s := d.sessions[j][i]
				var sentAt [2 * lookahead]int64
				submit := func(r uint64) bool {
					if !gateOf(j).admit(r) {
						return false
					}
					t := time.Now().UnixNano()
					sentAt[r%uint64(len(sentAt))] = t
					if i == 0 {
						w.sent0 = append(w.sent0, t)
					}
					if err := s.Submit(r, userBid(d.seed, j, int(r), i)); err != nil {
						w.err = fmt.Errorf("auction %d bidder %d round %d: %w", j, i, r, err)
						return false
					}
					return true
				}
				for r := uint64(1); r <= lookahead; r++ {
					if !submit(r) {
						break
					}
				}
				for out := range s.Outcomes() {
					now := time.Now().UnixNano()
					w.samples = append(w.samples, sample{key: now, lat: now - sentAt[out.Round%uint64(len(sentAt))], ok: out.Err == nil})
					if i == 0 && out.Err == nil && sampled(d.seed, j, int(out.Round)) {
						w.resolve = append(w.resolve, sampledOutcome{j, int(out.Round), out.Outcome})
					}
					if out.Round >= gateOf(j).last() || w.err != nil {
						return
					}
					if p := &d.plans[j]; p.group != "" {
						d.books[p.book].await(out.Round)
					}
					submit(out.Round + lookahead)
				}
			}(j, i, &workers[j*numUsers+i])
		}
	}
	begin := time.Now()
	winErr := d.measureWindow(res, begin.Add(warm), begin.Add(warm+span), profilePath)
	for j := range gates {
		gates[j].stop()
	}
	if err := waitOrTimeout(&wg, drainLimit, "closed-loop drain"); err != nil {
		return err
	}
	if err := d.awaitSettled(gates); err != nil {
		return err
	}
	if winErr != nil {
		return winErr
	}
	res.winLo, res.winHi = res.lo.at.UnixNano(), res.hi.at.UnixNano()
	inWindow := res.inWindow
	d.starts = make([][]int64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < numUsers; i++ {
			w := &workers[j*numUsers+i]
			if w.err != nil {
				return w.err
			}
			for _, s := range w.samples {
				if i == 0 && s.ok {
					res.arrivals = append(res.arrivals, s.key)
				}
				if !inWindow(s.key) {
					continue
				}
				res.outcome = append(res.outcome, s)
				if i == 0 {
					res.attempted++
					if s.ok {
						res.accepted++
					}
				}
			}
			res.resolve = append(res.resolve, w.resolve...)
		}
		d.starts[j] = workers[j*numUsers].sent0
	}
	return nil
}

// awaitSettled waits until every settle group has settled the round its
// gate stopped on, so that the federation closes with no settlement pending.
func (d *deployment) awaitSettled(gates []closedAuction) error {
	deadline := time.Now().Add(drainLimit)
	for bi, b := range d.books {
		if b.moved == nil {
			continue
		}
		for b.settledThrough() < gates[bi].last() {
			if time.Now().After(deadline) {
				return fmt.Errorf("settle group %d did not settle round %d within %v", bi, gates[bi].last(), drainLimit)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// settledSamples times every round from its start to the federation's
// outcome callback. In a settle group a round is settled when the last
// member's callback has fired: that member's report runs the two-phase
// commit. It reads the outcome logs, so it runs after the federation
// closed. Samples are keyed by the settle time.
func (d *deployment) settledSamples(res *runResult) {
	for j := range d.plans {
		members := []int{j}
		if p := d.plans[j]; p.group != "" {
			members = d.books[p.book].auctions
		}
		done := make(map[uint64]int64, len(d.logs[j].rounds))
		for _, m := range members {
			log := &d.logs[m]
			for k, r := range log.rounds {
				done[r] = max(done[r], log.at[k])
			}
		}
		log := &d.logs[j]
		for k, r := range log.rounds {
			if r < 1 || int(r) > len(d.starts[j]) {
				continue // a round closed unstarted at teardown
			}
			began, at := d.starts[j][r-1], done[r]
			if res.inWindow(at) {
				res.settled = append(res.settled, sample{key: at, lat: at - began, ok: log.ok[k]})
			}
		}
	}
}
