package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one lifecycle, round, step or tick share a Trace;
// Parent is the ID of the span that made the call, or -1 for a root.
type Span struct {
	Name   string
	Trace  uint64
	ID     int
	Parent int
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

// Dur is the span's wall-clock duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced run: every method is a no-op and Begin returns -1, so the
// workloads call it unconditionally.
type Recorder struct {
	epoch  time.Time
	traces atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// NewTrace allocates a trace ID for one lifecycle, round, step or tick.
func (r *Recorder) NewTrace() uint64 {
	if r == nil {
		return 0
	}
	return r.traces.Add(1)
}

// Begin opens a span and returns its ID.
func (r *Recorder) Begin(name string, trace uint64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{Name: name, Trace: trace, ID: id, Parent: parent, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// End closes the span id. Ending -1 (an untraced span) does nothing.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Spans returns the closed spans recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteTSV writes every span, one per line: trace, id, parent, name,
// start and end in nanoseconds since the recorder's epoch.
func (r *Recorder) WriteTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range r.Spans() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.Trace, s.ID, s.Parent, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Overlapping children (two calls in
// flight at once) count their union once, and a child running past its
// parent's end counts only inside the parent.
func SelfTimes(spans []Span) map[int]time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[int][]iv)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			a, b := max(s.Start, p.Start), min(s.End, p.End)
			if b > a {
				kids[s.Parent] = append(kids[s.Parent], iv{a, b})
			}
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].a < cs[j].a })
		var covered time.Duration
		curA, curB := time.Duration(0), time.Duration(-1)
		for _, c := range cs {
			if c.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = c.a, c.b
			} else if c.b > curB {
				curB = c.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out[s.ID] = s.Dur() - covered
	}
	return out
}

// spanStats groups spans by name: durations and self times in
// microseconds.
type spanStats struct {
	dur, self map[string]*Dist
}

func summarize(spans []Span) spanStats {
	self := SelfTimes(spans)
	st := spanStats{dur: map[string]*Dist{}, self: map[string]*Dist{}}
	for _, s := range spans {
		if st.dur[s.Name] == nil {
			st.dur[s.Name], st.self[s.Name] = &Dist{}, &Dist{}
		}
		st.dur[s.Name].Add(us(s.Dur()))
		st.self[s.Name].Add(us(self[s.ID]))
	}
	return st
}

// q returns the p-th percentile of the named distribution in st, or 0
// when the span never ran or the percentile lacks minBeyond samples above
// it.
func q(m map[string]*Dist, name string, p float64) float64 {
	d := m[name]
	if d == nil {
		return 0
	}
	v, ok := d.Quantile(p)
	if !ok {
		return 0
	}
	return v
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
