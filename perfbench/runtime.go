package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"

	"distauction/internal/trace"
)

// runtimeSample is the runtime/metrics readings the benchmark differences
// across the window.
type runtimeSample struct {
	allocs       uint64  // heap objects allocated
	gcCPU, cpu   float64 // seconds: GC, and everything but idle
	schedBuckets []float64
	schedCounts  []uint64 // goroutine scheduling latency histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s runtimeSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocs = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64 && ms[3].Value.Kind() == metrics.KindFloat64 {
		s.cpu = ms[2].Value.Float64() - ms[3].Value.Float64()
	}
	if ms[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := ms[4].Value.Float64Histogram()
		s.schedBuckets = h.Buckets
		s.schedCounts = append([]uint64(nil), h.Counts...)
	}
	return s
}

// schedQuantile is the q-quantile of goroutine scheduling latency between
// two samples, in seconds: the upper edge of the bucket holding it.
func schedQuantile(lo, hi runtimeSample, q float64) float64 {
	if len(lo.schedCounts) != len(hi.schedCounts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(hi.schedCounts))
	for i := range delta {
		delta[i] = hi.schedCounts[i] - lo.schedCounts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var seen uint64
	for i, c := range delta {
		if seen += c; seen > rank {
			return hi.schedBuckets[i+1]
		}
	}
	return hi.schedBuckets[len(hi.schedBuckets)-1]
}

// phaseReading is the per-phase span histograms of the traced window.
type phaseReading struct {
	p50   [trace.NumPhases]float64 // nanoseconds
	count [trace.NumPhases]int64
}

func readPhases() phaseReading {
	var r phaseReading
	for ph, h := range trace.PhaseDurations() {
		r.p50[ph] = float64(h.Quantile(0.5))
		r.count[ph] = h.Count
	}
	return r
}

// peakRSS is the process's peak resident set size in bytes (VmHWM).
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}
