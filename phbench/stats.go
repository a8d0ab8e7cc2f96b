package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 over 200 samples rests on two values and
// reads as noise, so it is not printed at all.
const minBeyond = 10

// ladder lists the percentiles a report line may show a timing at,
// lowest first. The gated op_tail_us does not climb it: each workload
// fixes its own tail percentile (see workloads).
var ladder = []float64{50, 90, 99, 99.9}

// Dist collects one timing's samples. A failed or refused operation is a
// sample too: it ranks above every measured value, so it can only push a
// percentile up, never hide behind the median.
type Dist struct {
	vals   []float64
	failed int
	sorted bool
}

// Add records one measured value.
func (d *Dist) Add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

// Fail records one operation that failed or was refused.
func (d *Dist) Fail() { d.failed++ }

// N is the number of samples, failures included.
func (d *Dist) N() int { return len(d.vals) + d.failed }

// Failed is the number of failed samples.
func (d *Dist) Failed() int { return d.failed }

// Merge appends o's samples to d.
func (d *Dist) Merge(o *Dist) {
	d.vals = append(d.vals, o.vals...)
	d.failed += o.failed
	d.sorted = false
}

// Quantile returns the nearest-rank p-th percentile. ok is false when
// fewer than minBeyond samples lie above it, in which case the value must
// not be reported. A percentile that lands on a failed sample is +Inf.
func (d *Dist) Quantile(p float64) (v float64, ok bool) {
	n := d.N()
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000000000002)
	// from moving the rank up by one.
	idx := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minBeyond {
		return 0, false
	}
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
	if idx >= len(d.vals) {
		return math.Inf(1), true
	}
	return d.vals[idx], true
}

// Tail returns the highest ladder percentile that has at least minBeyond
// samples above it, and its value. ok is false when not even the median
// qualifies.
func (d *Dist) Tail() (p, v float64, ok bool) {
	for _, q := range ladder {
		x, qok := d.Quantile(q)
		if !qok {
			break
		}
		p, v, ok = q, x, true
	}
	return p, v, ok
}

// FailShare is failed over attempted operations; 0 when nothing was
// attempted.
func FailShare(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// pctLabel renders a percentile as the suffix used in metric names:
// 99.9 -> "p99.9".
func pctLabel(p float64) string {
	return "p" + fmt.Sprint(p)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
