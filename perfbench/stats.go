package main

import (
	"fmt"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle two for an even
// count). xs is not modified.
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

// minTailSamples is how many samples must lie beyond a reported tail
// percentile, so that the tail rests on more than one or two outliers.
const minTailSamples = 10

// tail is the highest percentile of a sample set that has at least
// minTailSamples samples beyond it.
type tail struct {
	// Level is the percentile, e.g. 99 for 1000 samples.
	Level float64 `json:"level"`
	// Value is the sample at that percentile (nearest rank).
	Value float64 `json:"value"`
	// Samples is the sample count.
	Samples int `json:"samples"`
}

// tailPercentile returns the highest nearest-rank percentile of xs with at
// least minTailSamples samples beyond it: the sample of rank n-10, at
// level 100*(n-10)/n. It needs more than minTailSamples samples.
func tailPercentile(xs []float64) (tail, error) {
	n := len(xs)
	if n <= minTailSamples {
		return tail{}, fmt.Errorf("%d samples: a tail percentile needs more than %d", n, minTailSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := n - minTailSamples
	return tail{Level: 100 * float64(rank) / float64(n), Value: s[rank-1], Samples: n}, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msSamples converts durations to float milliseconds.
func msSamples(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// latency summarises latency samples taken in windows (a cycle, or a
// fixed run of samples): the median over windows of each window's median
// and of each window's tail percentile. Taking the tail per window keeps
// its level fixed by the window's sample count instead of drifting with
// how many cycles fit in a run.
func latency(cycles [][]time.Duration) (p50 float64, tl tail, err error) {
	var mids, tails, levels []float64
	samples := 0
	for _, c := range cycles {
		t, err := tailPercentile(msSamples(c))
		if err != nil {
			return 0, tail{}, err
		}
		mids = append(mids, median(msSamples(c)))
		tails = append(tails, t.Value)
		levels = append(levels, t.Level)
		samples += t.Samples
	}
	return median(mids), tail{Level: median(levels), Value: median(tails), Samples: samples}, nil
}

// chunks splits samples, in the order they were taken, into runs of size
// n; samples left over are added to the last run. It returns one run
// when there are fewer than 2n samples.
func chunks(ds []time.Duration, n int) [][]time.Duration {
	var out [][]time.Duration
	for len(ds) >= 2*n {
		out = append(out, ds[:n])
		ds = ds[n:]
	}
	return append(out, ds)
}
