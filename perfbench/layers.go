package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Layer attribution from outside the program: every CPU profile sample goes
// to the layer of its innermost frame in this repository, and samples with
// no repository frame go to runtime (GC workers, the scheduler, timers).
//
// Layers are the internal package names, with three merges: the auction
// mechanism (the double auction, the auction domain types and the fixed-point
// arithmetic they run on), observability (trace and metrics), and the common
// coin, which runs inside consensus.
var layerOfPackage = map[string]string{
	"doubleauction":   "mechanism",
	"standardauction": "mechanism",
	"auction":         "mechanism",
	"fixed":           "mechanism",
	"trace":           "observability",
	"metrics":         "observability",
	"coin":            "consensus",
}

// reportedLayers are the layers with their own per-layer metric; the rest
// of the repository's packages are summed as "other".
var reportedLayers = []string{
	"proto", "core", "market", "transport", "consensus", "taskgraph", "wire", "auth",
	"federation", "gateway", "ledger", "mechanism", "observability", "runtime",
}

const runtimeLayer = "runtime"

// layerOf maps one pprof function name to its layer, or "" for a frame
// outside the repository.
func layerOf(fn string) string {
	const internal = "distauction/internal/"
	fn = strings.TrimPrefix(strings.TrimPrefix(fn, "type:.hash."), "type:.eq.")
	switch {
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			if pkg[i] == '/' && pkg[:i] == "mechanism" {
				pkg = pkg[i+1:]
				if j := strings.IndexByte(pkg, '.'); j >= 0 {
					pkg = pkg[:j]
				}
			} else {
				pkg = pkg[:i]
			}
		}
		if l, ok := layerOfPackage[pkg]; ok {
			return l
		}
		return pkg
	case strings.HasPrefix(fn, "distauction."):
		return "facade"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// layerTable is samples per layer; total is the profile's own sample total,
// which the layers must account for exactly.
type layerTable struct {
	samples map[string]int64
	total   int64
}

func (t layerTable) sum() int64 {
	var s int64
	for _, n := range t.samples {
		s += n
	}
	return s
}

// share is a layer's fraction of all samples.
func (t layerTable) share(layer string) float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.samples[layer]) / float64(t.total)
}

// other sums the samples of every layer without its own metric.
func (t layerTable) other() int64 {
	n := t.sum()
	for _, l := range reportedLayers {
		n -= t.samples[l]
	}
	return n
}

// layers returns the layer names present, largest first.
func (t layerTable) layers() []string {
	names := make([]string, 0, len(t.samples))
	for l := range t.samples {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool {
		if t.samples[names[i]] != t.samples[names[j]] {
			return t.samples[names[i]] > t.samples[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// attribute reads a CPU profile with `go tool pprof` and buckets its
// samples. It parses the raw sample list, which keeps samples that carry no
// stack at all (they count as runtime), and checks the buckets against the
// sample total pprof itself reports.
func attribute(profile string) (layerTable, error) {
	raw, err := runPprof("-raw", profile)
	if err != nil {
		return layerTable{}, err
	}
	top, err := runPprof("-top", "-nodecount=1", "-sample_index=samples", profile)
	if err != nil {
		return layerTable{}, err
	}
	m := totalRE.FindSubmatch(top)
	if m == nil {
		return layerTable{}, fmt.Errorf("go tool pprof -top: no sample total in %q", firstLines(top, 8))
	}
	t := layerTable{samples: parseRaw(raw)}
	t.total, err = strconv.ParseInt(string(m[1]), 10, 64)
	return t, err
}

func runPprof(args ...string) ([]byte, error) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("layer attribution needs the go tool: %w", err)
	}
	cmd := exec.Command(goTool, append([]string{"tool", "pprof"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w: %s", args[0], err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}

var (
	totalRE    = regexp.MustCompile(`of (\d+) total`)
	sampleRE   = regexp.MustCompile(`^\s*(\d+)\s+\d+:((?:\s+\d+)*)\s*$`)
	locationRE = regexp.MustCompile(`^\s*(\d+): 0x[0-9a-f]+ M=\d+(?: (\S+))?`)
	inlineRE   = regexp.MustCompile(`^\s+(\S+) \S+:\d+:\d+ s=\d+$`)
)

// parseRaw reads `pprof -raw` output: a sample list ("count nanos: ids",
// location IDs leaf first, optionally followed by profile-label lines) and
// a location table, where each location lists its frames innermost first
// (inlined calls on continuation lines). A sample goes to the layer of its
// first repository frame.
func parseRaw(out []byte) map[string]int64 {
	type rawSample struct {
		count int64
		locs  []string
	}
	var samples []rawSample
	frames := make(map[string][]string) // location ID → functions, innermost first
	section, loc := "", ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSpace(line)
			continue
		}
		switch section {
		case "Samples:":
			if m := sampleRE.FindStringSubmatch(line); m != nil {
				n, _ := strconv.ParseInt(m[1], 10, 64)
				samples = append(samples, rawSample{n, strings.Fields(m[2])})
			}
		case "Locations":
			if m := locationRE.FindStringSubmatch(line); m != nil {
				loc = m[1]
				frames[loc] = nil
				if m[2] != "" {
					frames[loc] = append(frames[loc], m[2])
				}
			} else if m := inlineRE.FindStringSubmatch(line); m != nil && loc != "" {
				frames[loc] = append(frames[loc], m[1])
			}
		}
	}
	layers := make(map[string]int64)
	for _, s := range samples {
		layer := runtimeLayer
	stack:
		for _, id := range s.locs {
			for _, fn := range frames[id] {
				if l := layerOf(fn); l != "" {
					layer = l
					break stack
				}
			}
		}
		layers[layer] += s.count
	}
	return layers
}

func firstLines(b []byte, n int) string {
	lines := strings.SplitN(string(b), "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
