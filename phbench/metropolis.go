package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"peerhood/internal/experiments"
	"peerhood/internal/simnet"
)

// metropolis-100k: S6's constant-density city at 100k mobile nodes,
// stepped on the sharded substrate with no daemon, storage or library
// code at all. A simulator change shows here; a daemon change must not.
const (
	metroNodes = 100000
	metroWarm  = 12 // the S6 warm-up: arenas at high water, phases spread
	metroSteps = 50 // measured supersteps per world
	metroMin   = 2  // worlds per run at least, so every run has 100 steps
	metroTail  = 90 // the highest percentile 100 steps have ten samples above
)

// metroEnd is what one world ends with; every world the same build of
// the program makes from the same seed must end identically, traced or
// not, in this run or another.
type metroEnd struct {
	Digest string
	Stats  simnet.ShardStats
}

func runMetropolis(e *env) (*result, error) {
	r := newResult()
	var (
		first                       *metroEnd
		worlds                      int
		inq, resp, cand, reb, links float64
		heapPerNode                 float64
	)
	start := time.Now()
	for worlds < metroMin || time.Since(start) < e.budget {
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)

		t0 := time.Now()
		sw, err := experiments.MetropolisWorld(e.seed, metroNodes)
		if err != nil {
			return nil, err
		}
		for s := 0; s < metroWarm; s++ {
			sw.Step()
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())

		before := sw.Stats()
		t1 := time.Now()
		for s := 0; s < metroSteps; s++ {
			tr := e.rec.NewTrace()
			sp := e.rec.Begin("simnet.step", tr, -1)
			ts := time.Now()
			sw.Step()
			r.op.Add(us(time.Since(ts)))
			e.rec.End(sp)
		}
		r.elapsed += time.Since(t1)
		after := sw.Stats()
		r.attempted += metroSteps
		r.completed += metroSteps
		inq += float64(after.Inquiries - before.Inquiries)
		resp += float64(after.InquiryResponses - before.InquiryResponses)
		cand += float64(after.InquiryCandidates - before.InquiryCandidates)
		reb += float64(after.Rebuckets - before.Rebuckets)
		links += float64(sw.ActiveLinks())

		// Live heap per node with the stepped world still referenced.
		runtime.GC()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		if m1.HeapAlloc > m0.HeapAlloc {
			heapPerNode = float64(m1.HeapAlloc-m0.HeapAlloc) / metroNodes
		}

		end := &metroEnd{Digest: sw.Digest(), Stats: after}
		if err := sw.Close(); err != nil {
			return nil, err
		}
		worlds++
		if first == nil {
			first = end
		} else if *end != *first {
			r.problem("world %d of seed %d ended at digest %.12s, the first at %.12s", worlds, e.seed, end.Digest, first.Digest)
		}
	}
	if err := metroReplay(e, first, r); err != nil {
		return nil, err
	}

	steps := float64(worlds * metroSteps)
	p50, _ := r.op.Quantile(50)
	r.add("ns_per_node_step", p50*1e3/metroNodes, "ns", r.op.N())
	r.add("heap_B_per_node", heapPerNode, "B", worlds)
	r.add("worlds", float64(worlds), "count", worlds)
	fmt.Printf("# metropolis-100k seed %d: %d steps end at digest %s\n", e.seed, metroWarm+metroSteps, first.Digest)
	r.layers["simnet.inquiries_per_step"] = inq / steps
	r.layers["simnet.candidate_yield"] = ratio(resp, cand)
	r.layers["simnet.rebuckets_per_step"] = reb / steps
	r.layers["simnet.links_active"] = links / float64(worlds)
	return r, nil
}

// metroReplay compares this run's end state with the one recorded by the
// first run of the same seed by the same build, traced or untraced, and
// records it when there is none yet. The record is keyed by a hash of the
// running binary: another version of the program may draw its random
// numbers in another order and so end elsewhere, and it starts a record of
// its own instead of being held to an earlier version's.
func metroReplay(e *env, end *metroEnd, r *result) error {
	build, err := buildID()
	if err != nil {
		return err
	}
	path := filepath.Join(e.state, fmt.Sprintf("metropolis-%s-seed%d-steps%d.json", build, e.seed, metroWarm+metroSteps))
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		js, err := json.Marshal(end)
		if err != nil {
			return err
		}
		return os.WriteFile(path, js, 0o644)
	}
	if err != nil {
		return err
	}
	var prev metroEnd
	if err := json.Unmarshal(b, &prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if prev != *end {
		r.problem("seed %d ended at digest %.12s with %+v; an earlier run of it ended at %.12s with %+v",
			e.seed, end.Digest, end.Stats, prev.Digest, prev.Stats)
	}
	return nil
}

// buildID is a short hash of the running binary's contents.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
