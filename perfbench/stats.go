package main

import (
	"fmt"
	"sort"
	"time"
)

// tailMin is how many samples must lie beyond a reported tail
// percentile.
const tailMin = 10

// median returns the median of xs (0 for none). xs is not modified.
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

// tailStat is a tail percentile with the sample count behind it.
type tailStat struct {
	Value      float64
	Percentile float64 // in percent
	N          int
}

func (t tailStat) String() string {
	return fmt.Sprintf("p%.1f of n=%d", t.Percentile, t.N)
}

// tail returns the highest percentile of xs that has at least tailMin
// samples beyond it: the order statistic with exactly tailMin larger
// samples. It refuses when xs has too few samples for that.
func tail(xs []float64) (tailStat, error) {
	n := len(xs)
	if n < tailMin+1 {
		return tailStat{}, fmt.Errorf("tail needs at least %d samples, have %d", tailMin+1, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - tailMin - 1
	return tailStat{Value: s[k], Percentile: 100 * float64(k+1) / float64(n), N: n}, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durMs converts durations to float milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// passMetrics sets pass_ms_p50 and pass_ms_tail from per-pass wall
// times and prints the tail's percentile and n.
func passMetrics(e *env, m metrics, prefix string, passes []time.Duration) error {
	xs := durMs(passes)
	tl, err := tail(xs)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	m.set(prefix+"_p50", median(xs), "ms")
	m.set(prefix+"_tail", tl.Value, "ms")
	fmt.Fprintf(e.log, "  %s: p50 %.3f ms, tail %.3f ms (%s)\n", prefix, median(xs), tl.Value, tl)
	return nil
}
