package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it: with nearest rank, the percentile 100(n-10)/n,
// whose value is the eleventh largest sample. The label names the
// percentile and the sample count. Below 21 samples that percentile is
// not above the median, and tail returns the maximum instead.
func tail(xs []float64) (float64, string) {
	n := len(xs)
	if n == 0 {
		return 0, "no samples"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 21 {
		return s[n-1], fmt.Sprintf("max of %d samples (too few for ten beyond a percentile above the median)", n)
	}
	return s[n-11], fmt.Sprintf("p%.1f of %d samples", 100*float64(n-10)/float64(n), n)
}

// medianOfInputs is the p50 of a workload that runs several inputs an
// equal number of times: the median over inputs of each input's median.
// The median of all samples would fall in the gap between the two
// middle inputs' clusters and jump with single samples.
func medianOfInputs[K comparable](samples map[K][]float64) float64 {
	var meds []float64
	for _, s := range samples {
		meds = append(meds, median(s))
	}
	return median(meds)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perEvent returns d in nanoseconds per event.
func perEvent(d time.Duration, events int64) float64 {
	if events == 0 {
		return 0
	}
	return float64(d) / float64(events)
}

// ratio returns a/b, or 0 when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
