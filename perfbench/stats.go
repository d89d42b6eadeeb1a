package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// series is one latency metric's samples in milliseconds, one per
// operation.
type series []float64

func (s *series) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

func (s series) sorted() []float64 {
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	return xs
}

// median of the samples; 0 for an empty series.
func (s series) median() float64 {
	xs := s.sorted()
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return xs[n/2]
	default:
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of tailPercentiles with at least
// ten samples beyond it, and its value (nearest rank). ok is false
// below forty samples, where no such percentile is a tail.
func (s series) tail() (pct, value float64, ok bool) {
	xs := s.sorted()
	n := len(xs)
	if n < 40 {
		return 0, 0, false
	}
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			rank := int(math.Ceil(p / 100 * float64(n)))
			return p, xs[rank-1], true
		}
	}
	return 0, 0, false
}

// describe renders the median, the tail and the sample count.
func (s series) describe() string {
	if p, v, ok := s.tail(); ok {
		return fmt.Sprintf("median %.3f  p%g %.3f  (n=%d)", s.median(), p, v, len(s))
	}
	return fmt.Sprintf("median %.3f  (n=%d)", s.median(), len(s))
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(data, n=4) with its default exclusive method,
// so the spreads printed here match the ones a reader computes from
// the per-run JSON lines.
func quartiles(data []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), data...)
	sort.Float64s(xs)
	ld := len(xs)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return xs[0], xs[0], xs[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}
