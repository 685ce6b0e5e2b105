package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// samples is a latency record that keeps every observation of a window:
// no sampling, no cap. Each observation carries the offset into the window
// it belongs to, so the window can be cut into slices.
type samples struct {
	mu sync.Mutex
	xs []float64 // milliseconds
	at []time.Duration
}

func (s *samples) add(d time.Duration) { s.addAt(0, d) }

func (s *samples) addAt(at, d time.Duration) {
	s.mu.Lock()
	s.xs = append(s.xs, float64(d)/1e6)
	s.at = append(s.at, at)
	s.mu.Unlock()
}

// slices returns the observations of each of k equal slices of
// [from, from+span), sorted. Observations outside it are left out.
func (s *samples) slices(from time.Duration, k int, span time.Duration) [][]float64 {
	out := make([][]float64, k)
	s.mu.Lock()
	for i, x := range s.xs {
		at := s.at[i] - from
		if at < 0 || at >= span {
			continue
		}
		j := int(int64(k) * int64(at) / int64(span))
		out[j] = append(out[j], x)
	}
	s.mu.Unlock()
	for _, xs := range out {
		sort.Float64s(xs)
	}
	return out
}

// sorted returns a sorted copy of the observations.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.xs...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

// quantile is the nearest-rank q-quantile of sorted observations (0 when
// there are none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile is the highest of a fixed ladder of percentiles that still
// has at least ten observations beyond it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metric is one reported number with its unit and the number of
// observations behind it.
type metric struct {
	value float64
	unit  string
	n     int
}

// report collects every metric a run produces. The human-readable lines
// carry each one; the final JSON line carries the gated subset.
type report struct {
	m     map[string]metric
	order []string
}

func newReport() *report { return &report{m: map[string]metric{}} }

func (r *report) set(name string, value float64, unit string, n int) {
	if _, ok := r.m[name]; !ok {
		r.order = append(r.order, name)
	}
	r.m[name] = metric{value: value, unit: unit, n: n}
}

// latency records the median and p99 of a latency record under
// <prefix>_p50_ms / <prefix>_p99_ms, and prints the tail percentile the
// sample count supports.
func (r *report) latency(prefix string, s *samples) {
	xs := s.sorted()
	r.set(prefix+"_p50_ms", quantile(xs, 0.5), "ms", len(xs))
	r.set(prefix+"_p99_ms", quantile(xs, 0.99), "ms", len(xs))
	if q := tailQuantile(len(xs)); q != 0.99 {
		r.set(fmt.Sprintf("%s_p%g_ms", prefix, q*100), quantile(xs, q), "ms", len(xs))
	}
}

// calm is the quartile of repeated measurements on their better side: the
// lower quartile when lower is better, else the upper one. The benchmark
// shares its host, and interference from outside only ever slows it, so a
// disturbance that spares a quarter of the measurements cannot move this;
// a change to the code moves them all.
func calm(xs []float64, lowerIsBetter bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if lowerIsBetter {
		return quantile(s, 0.25)
	}
	return quantile(s, 0.75)
}

// calmSliceMedian is calm over the medians of k equal slices of [0, span).
// A slice without observations has no median and is left out; the number
// of such slices is returned so the caller can fail the run, since a quiet
// slice would otherwise go unnoticed behind the calm quartile.
func calmSliceMedian(s *samples, k int, span time.Duration) (float64, int) {
	var p50 []float64
	empty := 0
	for _, xs := range s.slices(0, k, span) {
		if len(xs) == 0 {
			empty++
			continue
		}
		p50 = append(p50, quantile(xs, 0.5))
	}
	return calm(p50, true), empty
}

func (r *report) print() {
	for _, name := range r.order {
		m := r.m[name]
		fmt.Printf("%-34s %14.6g %-8s n=%d\n", name, m.value, m.unit, m.n)
	}
}
