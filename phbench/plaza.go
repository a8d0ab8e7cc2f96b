package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"peerhood"
	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/geo"
	"peerhood/internal/mobility"
	"peerhood/internal/rng"
)

// plaza-sync: S2's dense plaza — 120 nodes, a tenth of them walking — on
// an instant simulated world driven by a manual clock. Discovery rounds,
// delta/full sync and the storage merge do the work; tcpnet and the
// library are never called. The walkers keep both delta and full fetches
// in the mix: a static crowd would measure only the cheapest path.
const (
	plazaNodes   = 120
	plazaSide    = 30.0
	plazaChurn   = 0.10
	plazaWarmup  = 3
	plazaStep    = 2 * time.Second // simulated time between sweeps
	plazaService = "presence"
	// plazaWorlds is how many plazas one run measures, one after another,
	// each for an equal share of the budget. Where the walkers and the
	// crowd stand moves a plaza's round cost by 10-15%, so a run that
	// sampled one layout would carry that into its spread.
	plazaWorlds = 4
)

type plazaWorld struct {
	w     *peerhood.World
	clk   *clock.Manual
	nodes []*peerhood.Node
}

func newPlaza(seed int64) (*plazaWorld, error) {
	clk := clock.NewManual()
	w := peerhood.NewWorld(peerhood.WorldConfig{Seed: seed, Clock: clk, Instant: true})
	// The fetch payloads are what plaza-sync loads, not their transfer
	// time: with a bandwidth cap every fetch would wait on the clock.
	for _, tech := range device.Techs() {
		p := w.Sim().Params(tech)
		p.Bandwidth = 0
		w.Sim().SetParams(tech, p)
	}
	pw := &plazaWorld{w: w, clk: clk}
	area := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(plazaSide, plazaSide)}
	src := rng.New(seed)
	walkers := int(plazaChurn * plazaNodes)
	for i := 0; i < plazaNodes; i++ {
		start := geo.Pt(src.Uniform(0, plazaSide), src.Uniform(0, plazaSide))
		nc := peerhood.NodeConfig{
			Name:          fmt.Sprintf("plaza-%03d", i),
			Mobility:      peerhood.Static,
			Position:      start,
			DisableBridge: true,
			// Fetch every round, so each round exercises the sync
			// protocol rather than the re-check interval.
			ServiceCheckInterval: 0,
		}
		if i < walkers {
			nc.Mobility = peerhood.Dynamic
			nc.Model = mobility.NewRandomWaypoint(start, area, 0.7, 2.0, 2*time.Second, src.Fork())
		}
		n, err := w.NewNode(nc)
		if err != nil {
			_ = w.Close()
			return nil, err
		}
		if _, err := n.RegisterService(plazaService, "", func(c *peerhood.Connection, _ peerhood.ConnectionMeta) {
			_ = c.Close()
		}); err != nil {
			_ = w.Close()
			return nil, err
		}
		pw.nodes = append(pw.nodes, n)
	}
	w.RunDiscoveryRounds(plazaWarmup)
	clk.Advance(plazaStep)
	return pw, nil
}

// plazaCounts accumulates a run's round reports over its plazas.
type plazaCounts struct {
	rounds, fetches, fetchErrs, delta, full int
	syncBytes                               int64
	merge                                   time.Duration
	missed                                  int
	candidates, inquiries, dials            int64
	entries                                 int // storage entries summed over every plaza's nodes
}

func runPlaza(e *env) (*result, error) {
	r := newResult()
	var c plazaCounts
	// Plaza j of the run is built from seed*plazaWorlds+j, so runs with
	// different seeds measure different plazas. Each build is one set-up.
	share := e.budget / plazaWorlds
	for j := int64(0); j < plazaWorlds; j++ {
		seed := e.seed*plazaWorlds + j
		t0 := time.Now()
		pw, err := newPlaza(seed)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		runtime.GC() // the previous plaza is not this one's garbage
		plazaSweeps(e, r, &c, pw, seed, share)
		_ = pw.w.Close()
	}
	r.failed = r.attempted - r.completed
	if c.missed > 0 {
		r.problem("%d peers answered a node's round but were missing from its storage or service list", c.missed)
	}

	fr := float64(c.rounds)
	r.add("rounds_per_s", float64(r.completed)/r.elapsed.Seconds(), "1/s", c.rounds)
	r.add("sync_B_per_round", ratio(float64(c.syncBytes), fr), "B", c.rounds)
	r.add("delta_fetches", float64(c.delta), "count", c.rounds)
	r.add("full_fetches", float64(c.full), "count", c.rounds)
	r.layers["storage.merge_us_per_round"] = ratio(us(c.merge), fr)
	r.layers["storage.entries_per_node"] = float64(c.entries) / (plazaNodes * plazaWorlds)
	r.layers["discovery.fetches_per_round"] = ratio(float64(c.fetches), fr)
	r.layers["discovery.delta_share"] = ratio(float64(c.delta), float64(c.delta+c.full))
	r.layers["discovery.fetch_error_share"] = ratio(float64(c.fetchErrs), float64(c.fetches))
	r.layers["phproto.B_per_fetch"] = ratio(float64(c.syncBytes), float64(c.fetches-c.fetchErrs))
	r.layers["simnet.candidates_per_inquiry"] = ratio(float64(c.candidates), float64(c.inquiries))
	r.layers["simnet.dials_per_round"] = ratio(float64(c.dials), fr)
	return r, nil
}

// plazaSweeps runs sweeps of node rounds on pw for budget and adds them to
// r and c.
func plazaSweeps(e *env, r *result, c *plazaCounts, pw *plazaWorld, seed int64, budget time.Duration) {
	sim0 := pw.w.Sim().Stats()
	deadline := time.Now().Add(budget)
	start := time.Now()
	for k := 0; time.Now().Before(deadline); k++ {
		// Nodes take their rounds in a seeded order that changes every
		// sweep, so the seed decides who syncs from whom first.
		order := rand.New(rand.NewPCG(uint64(seed), uint64(k))).Perm(plazaNodes)
		for _, i := range order {
			if !time.Now().Before(deadline) {
				break
			}
			n := pw.nodes[i]
			tr := e.rec.NewTrace()
			sp := e.rec.Begin("discovery.round", tr, -1)
			t0 := time.Now()
			reps := n.Daemon().RunDiscoveryRound()
			lat := us(time.Since(t0))
			e.rec.End(sp)
			ok := true
			for _, rep := range reps {
				c.fetches += rep.Fetches
				c.fetchErrs += rep.FetchErrors
				c.delta += rep.DeltaFetches
				c.full += rep.FullFetches
				c.syncBytes += rep.SyncBytes
				c.merge += rep.MergeTime
				if rep.FetchErrors > 0 {
					ok = false
				}
			}
			if m := plazaRead(e.rec, tr, pw, n); m > 0 {
				c.missed += m
				ok = false
			}
			c.rounds++
			r.attempted++
			if ok {
				r.completed++
				r.op.Add(lat)
			} else {
				r.op.Fail()
			}
		}
		pw.clk.Advance(plazaStep)
	}
	r.elapsed += time.Since(start)

	sim := pw.w.Sim().Stats()
	c.candidates += sim.InquiryCandidates - sim0.InquiryCandidates
	c.inquiries += sim.Inquiries - sim0.Inquiries
	c.dials += sim.DialsAttempted - sim0.DialsAttempted
	for _, n := range pw.nodes {
		c.entries += n.Daemon().Storage().Len()
	}
}

// plazaRead reads node n's storage the way an application would after a
// round: a Lookup of every peer that answered the round's inquiry, then
// one FindService for the service every node offers. It returns how many
// of those peers the storage failed to return.
func plazaRead(rec *Recorder, tr uint64, pw *plazaWorld, n *peerhood.Node) int {
	st := n.Daemon().Storage()
	now := pw.clk.Now()
	var answered []device.Addr
	for _, ls := range n.Daemon().LinkMonitor().States() {
		if ls.LastSample.Equal(now) && ls.LastQuality > 0 {
			answered = append(answered, ls.Addr)
		}
	}
	missed := 0
	for _, a := range answered {
		sp := rec.Begin("storage.lookup", tr, -1)
		_, ok := st.Lookup(a)
		rec.End(sp)
		if !ok {
			missed++
		}
	}
	sp := rec.Begin("storage.find_service", tr, -1)
	provs := st.FindService(plazaService)
	rec.End(sp)
	offered := make(map[device.Addr]bool, len(provs))
	for _, p := range provs {
		offered[p.Entry.Info.Addr] = true
	}
	for _, a := range answered {
		if !offered[a] {
			missed++
		}
	}
	return missed
}
