package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// orZero maps the NaN of an empty sample to 0, for layers a workload
// never reached.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// scaled returns xs multiplied by f (nanosecond samples to ms, say).
func scaled(xs []float64, f float64) []float64 {
	r := make([]float64, len(xs))
	for i, x := range xs {
		r[i] = x * f
	}
	return r
}

// medDur is the median of nanosecond samples as a duration (0 if empty).
func medDur(xs []float64) time.Duration { return time.Duration(orZero(median(xs))) }

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// samples collects per-operation values of named per-layer metrics and
// reduces each to its median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// medians writes the median of every collected metric into m.
func (s samples) medians(m map[string]float64) {
	for name, xs := range s {
		m[name] = median(xs)
	}
}

// fillZeros sets every per-layer metric the workload did not report to 0:
// the layer did no work in this workload.
func fillZeros(m map[string]float64) {
	for _, s := range perLayer {
		if _, ok := m[s.Name]; !ok {
			m[s.Name] = 0
		}
	}
}
