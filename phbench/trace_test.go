package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func span(id, parent int, start, end time.Duration) Span {
	return Span{Name: "s", ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	// connect [0,100) with a dial child [10,40) that has its own child
	// [15,25): the connect's self time excludes the whole dial, the dial's
	// excludes only its child.
	spans := []Span{
		span(0, -1, 0, 100),
		span(1, 0, 10, 40),
		span(2, 1, 15, 25),
	}
	self := SelfTimes(spans)
	for id, want := range map[int]time.Duration{0: 70, 1: 20, 2: 10} {
		if self[id] != want {
			t.Errorf("span %d: self %v want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Children [10,50) and [30,60) overlap: their union [10,60) counts
	// once. A child [90,130) running past the parent's end [0,100) counts
	// only its part inside. A child [200,210) wholly outside counts not
	// at all.
	spans := []Span{
		span(0, -1, 0, 100),
		span(1, 0, 10, 50),
		span(2, 0, 30, 60),
		span(3, 0, 90, 130),
		span(4, 0, 200, 210),
	}
	if got := SelfTimes(spans)[0]; got != 100-50-10 {
		t.Errorf("self %v want %v", got, time.Duration(40))
	}
	// Adjacent children [0,10) and [10,20) cover 20, not less.
	adj := []Span{span(0, -1, 0, 30), span(1, 0, 0, 10), span(2, 0, 10, 20)}
	if got := SelfTimes(adj)[0]; got != 10 {
		t.Errorf("adjacent: self %v want 10", got)
	}
}

func TestNilRecorderIsUntraced(t *testing.T) {
	var r *Recorder
	if id := r.Begin("x", r.NewTrace(), -1); id != -1 {
		t.Fatalf("nil recorder Begin = %d", id)
	}
	r.End(-1)
	if r.Spans() != nil {
		t.Fatal("nil recorder has spans")
	}
}

func TestRecorderConcurrentSpansAndTSV(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr := r.NewTrace()
				root := r.Begin("root", tr, -1)
				r.End(r.Begin("child", tr, root))
				r.End(root)
			}
		}()
	}
	wg.Wait()
	open := r.Begin("open", 0, -1) // never ended: not reported
	_ = open
	spans := r.Spans()
	if len(spans) != 400 {
		t.Fatalf("%d spans want 400", len(spans))
	}
	traces := map[uint64]int{}
	for _, s := range spans {
		traces[s.Trace]++
		if s.Name == "child" && spans[s.Parent].Trace != s.Trace {
			t.Fatalf("child %d in trace %d, parent in %d", s.ID, s.Trace, spans[s.Parent].Trace)
		}
	}
	if len(traces) != 200 {
		t.Errorf("%d traces want 200", len(traces))
	}
	path := filepath.Join(t.TempDir(), "spans.tsv")
	if err := r.WriteTSV(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != 401 {
		t.Errorf("%d lines want 401", lines)
	}
}
