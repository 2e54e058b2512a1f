package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects latencies (in milliseconds) from one or more
// goroutines, with the time each completed.
type samples struct {
	mu sync.Mutex
	v  []float64
	at []time.Time
}

func (s *samples) add(d time.Duration) {
	now := time.Now()
	s.mu.Lock()
	s.v = append(s.v, float64(d)/float64(time.Millisecond))
	s.at = append(s.at, now)
	s.mu.Unlock()
}

// slices groups the samples by the one-second slice of [t0, t0+n s)
// they completed in.
func (s *samples) slices(t0 time.Time, n int) [][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]float64, n)
	for i, at := range s.at {
		if k := int(at.Sub(t0) / time.Second); k >= 0 && k < n {
			out[k] = append(out[k], s.v[i])
		}
	}
	return out
}

// sliceQuantile is the median, over one-second slices, of each slice's
// q-quantile: a tail percentile that one disturbed second cannot move.
func (s *samples) sliceQuantile(q float64, t0 time.Time, n int) float64 {
	var qs []float64
	for _, sl := range s.slices(t0, n) {
		if len(sl) > 0 {
			qs = append(qs, quantile(sl, q))
		}
	}
	if len(qs) == 0 {
		return s.quantile(q)
	}
	return median(qs)
}

func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// quantile returns the q-quantile (0 < q < 1) by nearest rank, or NaN
// with no samples.
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.v, q)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// mean returns the arithmetic mean, or NaN with no values.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
