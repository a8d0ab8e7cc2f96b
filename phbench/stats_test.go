package main

import (
	"math"
	"runtime/metrics"
	"testing"
)

func distOf(n int) *Dist {
	var d Dist
	for i := n; i >= 1; i-- { // reverse order: Quantile must sort
		d.Add(float64(i))
	}
	return &d
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 50, 0, false}, // rank 10 of 19: nine above
		{20, 50, 10, true}, // rank 10 of 20: ten above
		{21, 50, 11, true},
		{99, 90, 0, false}, // rank 90 of 99: nine above
		{100, 90, 90, true},
		{999, 99, 0, false},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
		{0, 50, 0, false},
	} {
		got, ok := distOf(tc.n).Quantile(tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("n=%d p%v: got %v,%v want %v,%v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{19, 0, false},
		{50, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{25000, 99.9, true},
		{500000, 99.9, true}, // the ladder ends at p99.9
	} {
		p, _, ok := distOf(tc.n).Tail()
		if ok != tc.ok || p != tc.p {
			t.Errorf("n=%d: tail %v,%v want %v,%v", tc.n, p, ok, tc.p, tc.ok)
		}
	}
}

func TestFailuresRankAboveEveryValue(t *testing.T) {
	d := distOf(90)
	for i := 0; i < 10; i++ {
		d.Fail()
	}
	if d.N() != 100 || d.Failed() != 10 {
		t.Fatalf("N=%d Failed=%d", d.N(), d.Failed())
	}
	// p90 of 100 is index 89: the last measured value, ten failures above.
	if v, ok := d.Quantile(90); !ok || v != 90 {
		t.Errorf("p90 = %v,%v want 90,true", v, ok)
	}
	// Eleven failures push the same percentile onto a failure.
	d.Fail()
	d.Add(0.5)
	if v, ok := d.Quantile(90); !ok || !math.IsInf(v, 1) {
		t.Errorf("p90 with 11 failures = %v,%v want +Inf,true", v, ok)
	}
	// The median stays among the measured values: rank 51 of 102.
	if v, _ := d.Quantile(50); v != 50 {
		t.Errorf("median = %v want 50", v)
	}
}

func TestFailShareCountsRefusals(t *testing.T) {
	// 40 attempts: 3 refused connects and 1 failed echo are 4 failures.
	var dial Dist
	for i := 0; i < 37; i++ {
		dial.Add(50)
	}
	for i := 0; i < 3; i++ {
		dial.Fail()
	}
	attempted, failed := dial.N(), dial.Failed()+1
	if got := FailShare(attempted, failed); got != 0.1 {
		t.Errorf("FailShare(%d,%d) = %v want 0.1", attempted, failed, got)
	}
	if got := FailShare(0, 0); got != 0 {
		t.Errorf("FailShare(0,0) = %v want 0", got)
	}
}

func TestMedianOfSetups(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestRuntimeHistogramPercentile(t *testing.T) {
	buckets := []float64{math.Inf(-1), 0, 1e-6, 2e-6, math.Inf(1)}
	before := &metrics.Float64Histogram{Counts: []uint64{0, 5, 0, 0}, Buckets: buckets}
	// 100 new samples in [0,1µs), 100 in [1µs,2µs): the p50 is the last of
	// the first bucket, the p90 sits 80% into the second.
	after := &metrics.Float64Histogram{Counts: []uint64{0, 105, 100, 0}, Buckets: buckets}
	if got := histDeltaPct(before, after, 50); math.Abs(got-0.995) > 1e-9 {
		t.Errorf("p50 = %v µs want 0.995", got)
	}
	if got := histDeltaPct(before, after, 90); math.Abs(got-1.795) > 1e-9 {
		t.Errorf("p90 = %v µs want 1.795", got)
	}
	// p99 of 200 has one sample above it: not reported.
	if got := histDeltaPct(before, after, 99); got != 0 {
		t.Errorf("p99 = %v want 0", got)
	}
	// A sample in the open-ended bucket reads as its lower edge.
	tail := &metrics.Float64Histogram{Counts: []uint64{0, 5, 0, 30}, Buckets: buckets}
	if got := histDeltaPct(before, tail, 50); got != 2 {
		t.Errorf("open bucket p50 = %v want 2", got)
	}
}

func TestMetropolisMinimumSupportsItsTail(t *testing.T) {
	if _, ok := distOf(metroMin * metroSteps).Quantile(metroTail); !ok {
		t.Fatalf("%d supersteps do not support p%v", metroMin*metroSteps, metroTail)
	}
}

func TestEndToEndRefusesTooFewForTheWorkloadTail(t *testing.T) {
	wl := &workload{name: "w", tail: 99}
	r := newResult()
	r.setup = []float64{1}
	r.elapsed = 1
	r.op = *distOf(999) // p99 of 999 has nine samples above it
	if _, err := endToEnd(wl, r); err == nil {
		t.Fatal("999 ops gave a p99 tail")
	}
	r.op = *distOf(1000)
	m, err := endToEnd(wl, r)
	if err != nil || m["op_tail_us"].Value != 990 {
		t.Fatalf("1000 ops: %v, %v", m["op_tail_us"], err)
	}
}
