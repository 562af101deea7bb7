package main

import (
	"fmt"
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a percentile for it
// to be supported: p90 needs 100 samples and p99 needs 1000.
const minTailSamples = 10

// Summary is a latency sample reduced to the figures the benchmark
// reports: the median and p90, and the sample count they rest on.
type Summary struct {
	N        int
	P50, P90 float64
}

// percentileSupported reports whether a sample of n values carries
// percentile p (0 < p < 100): at least minTailSamples of them must lie
// beyond it.
func percentileSupported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minTailSamples
}

// percentile returns the p-th percentile of sorted by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// summarize reduces xs to a Summary.
func summarize(xs []float64) Summary {
	s := sortedCopy(xs)
	return Summary{N: len(s), P50: percentile(s, 50), P90: percentile(s, 90)}
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty sample.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

// mean returns the arithmetic mean of xs; NaN for an empty sample.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of xs with the method
// of Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	// A transcription of CPython's statistics.quantiles, including its
	// clamping (which extrapolates linearly for tiny samples).
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance of xs as a share of its
// median: the run-to-run spread a metric's bound is compared against.
func spreadShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// boundVerdict judges a set of runs of one metric on one workload
// against its bound: a spread within bound/3 is steady, within the
// bound is acceptable, beyond it fails.
func boundVerdict(spread, bound float64) string {
	switch {
	case spread <= bound/3:
		return "steady"
	case spread <= bound:
		return "within-bound"
	default:
		return "TOO-WIDE"
	}
}

// fmtSummary renders a Summary with its sample count, flagging a p90
// that fewer than 10·minTailSamples samples cannot support.
func fmtSummary(s Summary, unit string) string {
	out := fmt.Sprintf("p50 %.4g %s, p90 %.4g %s (n=%d)", s.P50, unit, s.P90, unit, s.N)
	if !percentileSupported(s.N, 90) {
		out += fmt.Sprintf("; p90 unsupported below %d samples", 10*minTailSamples)
	}
	return out
}
