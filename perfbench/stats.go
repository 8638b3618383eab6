package main

import (
	"math"
	"runtime/debug"
	"sort"
)

// percentile returns the p-quantile (0..1) of sorted xs by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the median of xs, leaving xs alone.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// steadiness report matches how the spread of a set of runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(3)
}

// summarize records the latency quantiles over every operation's latency
// (ms), and the throughput as operations per second of the given time.
func (r *run) summarize(lat []float64, seconds float64) {
	s := sortedCopy(lat)
	r.setE2E("latency_p50_ms", "ms", percentile(s, 0.50))
	r.setE2E("latency_p95_ms", "ms", percentile(s, 0.95))
	r.setE2E("throughput_per_s", "1/s", float64(len(lat))/seconds)
}

// commit reports the VCS revision the binary was built from, with its dirty
// flag ("unknown" when built outside a repository).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
