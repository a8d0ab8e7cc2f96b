package main

import (
	"math"
	"runtime/metrics"
	"time"
)

// perLayer is every per-layer metric a traced run prints, in report
// order. A workload that never calls into a layer reports 0 for it: that
// is the "should not move" half of the prediction table in README.md.
var perLayer = []struct{ name, unit string }{
	{"tcpnet.dial_p50_us", "us"},
	{"tcpnet.dial_p99_us", "us"},
	{"tcpnet.dial_fail_share", "share"},
	{"tcpnet.wire_B_per_conn", "B"},
	{"tcpnet.writes_per_conn", "count"},
	{"library.connect_self_us", "us"},
	{"library.reconnect_self_us", "us"},
	{"library.swap_us", "us"},
	{"storage.lookup_p50_us", "us"},
	{"storage.lookup_p99_us", "us"},
	{"storage.find_service_p99_us", "us"},
	{"storage.merge_us_per_round", "us"},
	{"storage.entries_per_node", "count"},
	{"discovery.round_p50_us", "us"},
	{"discovery.round_p99_us", "us"},
	{"discovery.fetches_per_round", "count"},
	{"discovery.delta_share", "share"},
	{"discovery.fetch_error_share", "share"},
	{"phproto.B_per_fetch", "B"},
	{"simnet.candidates_per_inquiry", "count"},
	{"simnet.dials_per_round", "count"},
	{"simnet.step_p50_us", "us"},
	{"simnet.step_tail_us", "us"},
	{"simnet.inquiries_per_step", "count"},
	{"simnet.candidate_yield", "share"},
	{"simnet.rebuckets_per_step", "count"},
	{"simnet.links_active", "count"},
	{"clock.advance_us", "us"},
	{"simnet.checklinks_us", "us"},
	{"handover.step_us", "us"},
	{"handover.switches", "count"},
	{"handover.vertical_switches", "count"},
	{"handover.predictive_share", "share"},
	{"continuity.resumes", "count"},
	{"continuity.retransmit_B", "B"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.gc_pause_tail_us", "us"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.gc_cpu_share", "share"},
	{"trace.overhead_setup_s", "share"},
	{"trace.overhead_ops_per_s", "share"},
	{"trace.overhead_op_p50_us", "share"},
	{"trace.overhead_op_tail_us", "share"},
	{"trace.spans", "count"},
}

// layerMetrics combines the workload's counter-derived layer metrics with
// those derived from its spans and from the Go runtime.
func layerMetrics(r *result, st spanStats, rt runtimeDelta) map[string]float64 {
	m := map[string]float64{
		"tcpnet.dial_p50_us":           q(st.dur, "tcpnet.dial", 50),
		"tcpnet.dial_p99_us":           q(st.dur, "tcpnet.dial", 99),
		"library.connect_self_us":      q(st.self, "library.connect", 50),
		"library.reconnect_self_us":    q(st.self, "library.reconnect", 50),
		"library.swap_us":              q(st.dur, "library.swap", 50),
		"storage.lookup_p50_us":        q(st.dur, "storage.lookup", 50),
		"storage.lookup_p99_us":        q(st.dur, "storage.lookup", 99),
		"storage.find_service_p99_us":  q(st.dur, "storage.find_service", 99),
		"discovery.round_p50_us":       q(st.dur, "discovery.round", 50),
		"discovery.round_p99_us":       q(st.dur, "discovery.round", 99),
		"simnet.step_p50_us":           q(st.dur, "simnet.step", 50),
		"clock.advance_us":             q(st.dur, "clock.advance", 50),
		"simnet.checklinks_us":         q(st.dur, "simnet.checklinks", 50),
		"handover.step_us":             q(st.dur, "handover.step", 50),
		"runtime.sched_latency_p99_us": rt.schedP99,
		"runtime.gc_pause_tail_us":     rt.gcPauseTail,
		"runtime.gc_cycles_per_s":      rt.gcPerSec,
		"runtime.gc_cpu_share":         rt.gcCPUShare,
	}
	m["simnet.step_tail_us"] = q(st.dur, "simnet.step", metroTail)
	for k, v := range r.layers {
		m[k] = v
	}
	return m
}

// runtimeSnap is a reading of the Go runtime's scheduler and GC metrics.
type runtimeSnap struct {
	at time.Time
	s  []metrics.Sample
}

// runtimeDelta is what the runtime did between two snapshots.
type runtimeDelta struct {
	schedP99, gcPauseTail, gcCPUShare, gcPerSec float64
}

var runtimeNames = []string{
	"/sched/latencies:seconds",
	"/sched/pauses/total/gc:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{time.Now(), s}
}

func (b runtimeSnap) since(a runtimeSnap) runtimeDelta {
	var d runtimeDelta
	d.schedP99 = histPct(a.s[0].Value, b.s[0].Value, 99)
	// A run has tens of GC cycles, too few for a p99: report the highest
	// ladder percentile the pauses support.
	for _, p := range ladder {
		if v := histPct(a.s[1].Value, b.s[1].Value, p); v > 0 {
			d.gcPauseTail = v
		}
	}
	gc := floatOf(b.s[2].Value) - floatOf(a.s[2].Value)
	total := floatOf(b.s[3].Value) - floatOf(a.s[3].Value)
	d.gcCPUShare = ratio(gc, total)
	if b.s[4].Value.Kind() == metrics.KindUint64 {
		d.gcPerSec = float64(b.s[4].Value.Uint64()-a.s[4].Value.Uint64()) / b.at.Sub(a.at).Seconds()
	}
	return d
}

func floatOf(v metrics.Value) float64 {
	if v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

// histPct is the p-th percentile, in µs, of the samples a runtime
// histogram gained between two readings. The runtime's buckets are
// coarse (powers of two and their fractions), so the value is
// interpolated by rank inside the bucket holding it. It is 0 when the
// percentile has fewer than minBeyond samples above it.
func histPct(a, b metrics.Value, p float64) float64 {
	if a.Kind() != metrics.KindFloat64Histogram || b.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	return histDeltaPct(a.Float64Histogram(), b.Float64Histogram(), p)
}

func histDeltaPct(ha, hb *metrics.Float64Histogram, p float64) float64 {
	counts := make([]uint64, len(hb.Counts))
	var n uint64
	for i := range hb.Counts {
		counts[i] = hb.Counts[i]
		if i < len(ha.Counts) {
			counts[i] -= ha.Counts[i]
		}
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	// Nearest rank, as Dist.Quantile: the sample at 0-based index idx.
	idx := uint64(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if n-1-idx < minBeyond {
		return 0
	}
	var cum uint64
	for i, c := range counts {
		if cum+c > idx {
			lo, hi := hb.Buckets[i], hb.Buckets[i+1]
			switch {
			case math.IsInf(hi, 1):
				return lo * 1e6
			case math.IsInf(lo, -1):
				return hi * 1e6
			}
			frac := (float64(idx-cum) + 0.5) / float64(c)
			return (lo + frac*(hi-lo)) * 1e6
		}
		cum += c
	}
	return 0
}
