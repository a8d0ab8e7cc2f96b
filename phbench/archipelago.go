package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"peerhood"
	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/experiments"
)

// archipelago-walk: S5's dual/predictive+cont corridor walk. A commuter
// with WLAN and GPRS radios walks past two WLAN islands under a GPRS
// umbrella, streaming 64 B to a sink every 200 ms tick over a
// session-continuity window, while one goroutine drives the manual clock,
// link checks, discovery rounds and the handover thread. Handover,
// linkmon, bridge relays and the continuity window run only here. Walks
// repeat over consecutive seeds.
//
// The walk runs on one Go P and ends every tick by yielding until the sink
// has read what was written (settle). A driver that advances the manual
// clock without waiting outruns the sink by tens of ticks: the sink reads
// in bursts only when the sender blocks on a full window, gap_ms measures
// that lag, a resume trims the window only to the sink's stale position,
// and now and then, depending on how the host schedules the sink, the
// window fills through an outage and Writes fail.
const (
	archTick     = 200 * time.Millisecond
	archMsgBytes = 64
	archWindow   = 4096
	archFrom     = 1.0
	archTo       = 115.0
	archSpeed    = 1.4
	// archIdleYields is how many yields in a row that bring the sink no
	// bytes end a tick's settle: the rest is held in the send window
	// across an outage and arrives with the resume.
	archIdleYields = 4
)

var archHotspots = []float64{45, 90}

// archSink is the server side of the stream: it checks every byte against
// the sender's pattern and notes, in simulated time, the longest stretch
// between two deliveries.
type archSink struct {
	clk *clock.Manual

	mu        sync.Mutex
	conn      *peerhood.Connection
	off       int64
	bad       int64
	last      time.Time
	gap       time.Duration
	delivered chan struct{} // signalled after every read
}

func (s *archSink) serve(c *peerhood.Connection, _ peerhood.ConnectionMeta) {
	defer c.Close()
	s.mu.Lock()
	if s.conn == nil {
		s.conn = c
	}
	s.mu.Unlock()
	buf := make([]byte, 4096)
	for {
		n, err := c.Read(buf)
		if n > 0 {
			now := s.clk.Now()
			s.mu.Lock()
			for _, b := range buf[:n] {
				if b != byte(s.off/archMsgBytes%251) {
					s.bad++
				}
				s.off++
			}
			if !s.last.IsZero() && now.Sub(s.last) > s.gap {
				s.gap = now.Sub(s.last)
			}
			s.last = now
			s.mu.Unlock()
			select {
			case s.delivered <- struct{}{}:
			default:
			}
		}
		if err != nil {
			return
		}
	}
}

// settle yields until the sink has read want bytes or archIdleYields
// yields in a row bring it none. On one P a yield lets the goroutines the
// tick woke (link delivery, relays, the sink) run before the driver
// resumes, so no wall-clock wait is involved.
func (s *archSink) settle(want int64) {
	s.mu.Lock()
	off := s.off
	s.mu.Unlock()
	for idle := 0; off < want && idle < archIdleYields; {
		runtime.Gosched()
		s.mu.Lock()
		moved := s.off != off
		off = s.off
		s.mu.Unlock()
		if moved {
			idle = 0
		} else {
			idle++
		}
	}
}

// archWalk is one corridor walk's outcome.
type archWalk struct {
	setup, walk            time.Duration
	sent, lost             int
	accepted               int64
	gap                    time.Duration
	switches, vertical     int64
	predictive, resumes    int64
	retransB               int64
	dropped, dup, badBytes int64
	rounds                 int
	fetches, fetchErrs     int
	delta, full            int
}

func runArchipelago(e *env) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := newResult()
	var walks []archWalk
	var gaps Dist
	start := time.Now()
	for i := 0; len(walks) < 3 || time.Since(start) < e.budget; i++ {
		wk, err := archWalkOnce(e.rec, e.seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("walk seed %d: %w", e.seed+int64(i), err)
		}
		walks = append(walks, wk)
		r.setup = append(r.setup, wk.setup.Seconds())
		r.elapsed += wk.walk
		r.attempted++
		gaps.Add(float64(wk.gap.Microseconds()) / 1e3)
		// Bytes Write accepted must arrive exactly once and in order; a
		// violation fails the run. A Write that returns an error (the
		// continuity window stayed full through an outage) fails only the
		// walk: the sender was told.
		intact := wk.dropped == 0 && wk.dup == 0 && wk.badBytes == 0
		if !intact {
			r.problem("walk seed %d: %d B dropped, %d B duplicated, %d B out of order or corrupt",
				e.seed+int64(i), wk.dropped, wk.dup, wk.badBytes)
		}
		if intact && wk.lost == 0 {
			r.completed++
			r.op.Add(us(wk.walk))
		} else {
			r.op.Fail()
			fmt.Printf("# archipelago-walk walk seed %d failed: %d of %d writes returned an error\n", e.seed+int64(i), wk.lost, wk.sent)
		}
	}
	r.failed = r.attempted - r.completed

	var sent, lost, rounds, fetches, fetchErrs, delta, full int
	var sw, vert, pred, res, retrans float64
	for _, wk := range walks {
		sent += wk.sent
		lost += wk.lost
		rounds += wk.rounds
		fetches += wk.fetches
		fetchErrs += wk.fetchErrs
		delta += wk.delta
		full += wk.full
		sw += float64(wk.switches)
		vert += float64(wk.vertical)
		pred += float64(wk.predictive)
		res += float64(wk.resumes)
		retrans += float64(wk.retransB)
	}
	n := float64(len(walks))
	if p50, ok := r.op.Quantile(50); ok {
		r.add("walk_ms", p50/1e3, "ms", r.op.N())
	}
	if v, ok := gaps.Quantile(50); ok {
		r.add("gap_ms_p50", v, "ms", gaps.N())
	}
	if p, v, ok := gaps.Tail(); ok {
		r.add("gap_ms_tail("+pctLabel(p)+")", v, "ms", gaps.N())
	}
	r.add("stream_write_fail_share", FailShare(sent, lost), "share", sent)
	r.layers["handover.switches"] = sw / n
	r.layers["handover.vertical_switches"] = vert / n
	r.layers["handover.predictive_share"] = ratio(pred, sw)
	r.layers["continuity.resumes"] = res / n
	r.layers["continuity.retransmit_B"] = retrans / n
	r.layers["discovery.fetches_per_round"] = ratio(float64(fetches), float64(rounds))
	r.layers["discovery.fetch_error_share"] = ratio(float64(fetchErrs), float64(fetches))
	r.layers["discovery.delta_share"] = ratio(float64(delta), float64(delta+full))
	return r, nil
}

// archWalkOnce builds the corridor for one seed and walks it.
func archWalkOnce(rec *Recorder, seed int64) (archWalk, error) {
	var wk archWalk
	t0 := time.Now()
	clk := clock.NewManual()
	w := peerhood.NewWorld(peerhood.WorldConfig{Seed: seed, Clock: clk, Instant: true})
	defer w.Close()
	for _, tech := range []device.Tech{device.TechWLAN, device.TechGPRS} {
		p := experiments.ArchipelagoParams(tech)
		// S5's two stochastic knobs that cost no simulated time: dial
		// faults and missed inquiry responses, drawn from the seed.
		p.FaultProb = 0.02
		p.ResponseProb = 0.98
		w.Sim().SetParams(tech, p)
	}
	dual := []peerhood.Tech{peerhood.WLAN, peerhood.GPRS}
	server, err := w.NewNode(peerhood.NodeConfig{Name: "server", Techs: dual})
	if err != nil {
		return wk, err
	}
	backbone := []*peerhood.Node{server}
	for i, x := range archHotspots {
		h, err := w.NewNode(peerhood.NodeConfig{Name: fmt.Sprintf("hotspot%d", i+1), Position: peerhood.Pt(x, 0), Techs: dual})
		if err != nil {
			return wk, err
		}
		backbone = append(backbone, h)
	}
	// SwapWait -1: a write on a dead transport fails at once instead of
	// blocking on a clock only this goroutine advances.
	commuter, err := w.NewNode(peerhood.NodeConfig{
		Name: "commuter", Position: peerhood.Pt(archFrom, 0.5), Mobility: peerhood.Dynamic,
		Techs: dual, SwapWait: -1, LinkWindow: 8, MaxMissedLoops: 8,
		HandoverPolicy: peerhood.PolicyBandwidthFirst,
	})
	if err != nil {
		return wk, err
	}
	sink := &archSink{clk: clk, delivered: make(chan struct{}, 1)}
	if _, err := server.RegisterService("sink", "", sink.serve); err != nil {
		return wk, err
	}
	w.RunDiscoveryRounds(3)

	target, _ := server.AddrFor(peerhood.GPRS)
	conn, err := commuter.Connect(target, "sink", peerhood.WithTech(peerhood.WLAN), peerhood.WithContinuityWindow(archWindow))
	if err != nil {
		return wk, fmt.Errorf("initial connect: %w", err)
	}
	defer conn.Close()
	th, err := commuter.MonitorHandover(conn, peerhood.HandoverConfig{
		Interval:         archTick,
		ManualSteps:      true,
		MaxRouteAttempts: 6,
		MaxFailures:      3,
		Predictive:       true,
		PredictHorizon:   5 * time.Second,
		PredictCooldown:  time.Second,
		TechHold:         10 * time.Second,
	})
	if err != nil {
		return wk, err
	}
	defer th.Stop()
	commuter.SetModel(peerhood.Walk(peerhood.Pt(archFrom, 0.5), peerhood.Pt(archTo, 0.5), archSpeed))
	wk.setup = time.Since(t0)

	round := func(tr uint64, parent int, n *peerhood.Node) {
		sp := rec.Begin("discovery.round", tr, parent)
		for _, rep := range n.Daemon().RunDiscoveryRound() {
			wk.fetches += rep.Fetches
			wk.fetchErrs += rep.FetchErrors
			wk.delta += rep.DeltaFetches
			wk.full += rep.FullFetches
		}
		rec.End(sp)
		wk.rounds++
	}

	t1 := time.Now()
	begin := clk.Now()
	dist := archTo - archFrom
	walkDur := time.Duration(dist / archSpeed * float64(time.Second))
	ticks := int((walkDur + 4*time.Second) / archTick) // drain ticks let recovery settle
	msg := make([]byte, archMsgBytes)
	for i := 0; i < ticks; i++ {
		tr := rec.NewTrace()
		root := rec.Begin("walk.tick", tr, -1)
		sp := rec.Begin("clock.advance", tr, root)
		clk.Advance(archTick)
		rec.End(sp)
		sp = rec.Begin("simnet.checklinks", tr, root)
		w.CheckLinks()
		rec.End(sp)
		if i%5 == 0 { // the commuter discovers every simulated second
			round(tr, root, commuter)
		}
		if i%10 == 0 { // the backbone refreshes every two seconds
			for _, n := range backbone {
				round(tr, root, n)
			}
		}
		if clk.Since(begin) <= walkDur {
			wk.sent++
			for j := range msg {
				msg[j] = byte(wk.accepted / archMsgBytes % 251)
			}
			sp = rec.Begin("stream.write", tr, root)
			_, werr := conn.Write(msg)
			rec.End(sp)
			if werr != nil {
				wk.lost++
			} else {
				wk.accepted += archMsgBytes
			}
		}
		sp = rec.Begin("handover.step", tr, root)
		th.Step()
		rec.End(sp)
		sink.settle(wk.accepted)
		rec.End(root)
	}
	// Drain the send window over the surviving bearer: every byte Write
	// accepted must now be delivered exactly once.
	if err := conn.Flush(); err != nil {
		return wk, fmt.Errorf("final flush: %w", err)
	}
	wk.walk = time.Since(t1)

	// The sink reads on its own goroutine; give it a bounded moment to
	// take the bytes the flush acknowledged.
	giveUp := time.After(2 * time.Second)
	for waiting := true; waiting; {
		sink.mu.Lock()
		waiting = sink.off < wk.accepted
		sink.mu.Unlock()
		if waiting {
			select {
			case <-sink.delivered:
			case <-giveUp:
				waiting = false
			}
		}
	}
	sink.mu.Lock()
	srv := sink.conn
	wk.badBytes, wk.gap = sink.bad, sink.gap
	sink.mu.Unlock()
	if srv == nil {
		return wk, fmt.Errorf("the sink never saw the connection")
	}
	delivered := srv.ContinuityStats().DeliveredBytes
	if d := wk.accepted - delivered; d > 0 {
		wk.dropped = d
	} else {
		wk.dup = -d
	}
	hs := th.Stats()
	wk.switches, wk.vertical, wk.predictive, wk.resumes = hs.Handovers, hs.VerticalHandovers, hs.PredictiveHandovers, hs.Resumes
	wk.retransB = conn.ContinuityStats().RetransBytes
	return wk, nil
}
