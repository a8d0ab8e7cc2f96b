package peerhood_test

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"peerhood"
	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/geo"
	"peerhood/internal/mobility"
	"peerhood/internal/rng"
	"peerhood/internal/storage"
)

// plazaTrace is everything a plaza run reports that must replay exactly:
// each round's sync traffic and merge outcome, and each node's final
// storage digest.
type plazaTrace struct {
	rounds  []plazaRound
	digests []storage.Digest
}

type plazaRound struct {
	node                           int
	syncBytes                      int64
	fetches, errors, deltas, fulls int
	merge                          storage.MergeResult
}

// runSmallPlaza builds the dense plaza of the plaza-sync benchmark at a
// smaller size — an instant world on a manual clock, a tenth of the nodes
// walking — and drives sweeps of node-by-node discovery rounds in a
// seeded order that changes every sweep.
func runSmallPlaza(t *testing.T, seed int64, nodes, sweeps int) plazaTrace {
	t.Helper()
	const side = 20.0
	clk := clock.NewManual()
	w := peerhood.NewWorld(peerhood.WorldConfig{Seed: seed, Clock: clk, Instant: true})
	defer w.Close()
	for _, tech := range device.Techs() {
		p := w.Sim().Params(tech)
		p.Bandwidth = 0
		w.Sim().SetParams(tech, p)
	}
	area := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(side, side)}
	src := rng.New(seed)
	var ns []*peerhood.Node
	for i := 0; i < nodes; i++ {
		start := geo.Pt(src.Uniform(0, side), src.Uniform(0, side))
		nc := peerhood.NodeConfig{
			Name:          fmt.Sprintf("plaza-%03d", i),
			Mobility:      peerhood.Static,
			Position:      start,
			DisableBridge: true,
		}
		if i < nodes/10 {
			nc.Mobility = peerhood.Dynamic
			nc.Model = mobility.NewRandomWaypoint(start, area, 0.7, 2.0, 2*time.Second, src.Fork())
		}
		n, err := w.NewNode(nc)
		if err != nil {
			t.Fatal(err)
		}
		ns = append(ns, n)
	}
	w.RunDiscoveryRounds(3)
	clk.Advance(2 * time.Second)

	var tr plazaTrace
	for k := 0; k < sweeps; k++ {
		for _, i := range rand.New(rand.NewPCG(uint64(seed), uint64(k))).Perm(nodes) {
			for _, rep := range ns[i].Daemon().RunDiscoveryRound() {
				tr.rounds = append(tr.rounds, plazaRound{
					node: i, syncBytes: rep.SyncBytes,
					fetches: rep.Fetches, errors: rep.FetchErrors,
					deltas: rep.DeltaFetches, fulls: rep.FullFetches,
					merge: rep.Merge,
				})
			}
		}
		clk.Advance(2 * time.Second)
	}
	for _, n := range ns {
		dg := n.Daemon().Storage().Digest()
		dg.Epoch = 0 // drawn afresh for every storage
		tr.digests = append(tr.digests, dg)
	}
	return tr
}

// TestPlazaSameSeedReplay pins the discovery and sync path's determinism:
// the same seed must reproduce every round's sync bytes, delta and full
// counts and merge result, and every node's final digest, generation
// included. The generation counts every wire-visible change, so it is the
// first thing to drift when a mutation's effect depends on map order.
func TestPlazaSameSeedReplay(t *testing.T) {
	a := runSmallPlaza(t, 7, 40, 3)
	b := runSmallPlaza(t, 7, 40, 3)
	if len(a.rounds) != len(b.rounds) {
		t.Fatalf("replay ran %d rounds, first run %d", len(b.rounds), len(a.rounds))
	}
	deltas := 0
	for i := range a.rounds {
		if a.rounds[i] != b.rounds[i] {
			t.Fatalf("round %d diverged:\n first  %+v\n replay %+v", i, a.rounds[i], b.rounds[i])
		}
		deltas += a.rounds[i].deltas
	}
	if deltas == 0 {
		t.Fatal("no delta fetches: the plaza does not exercise delta sync")
	}
	for i := range a.digests {
		if a.digests[i] != b.digests[i] {
			t.Fatalf("node %d final digest diverged: first %+v, replay %+v", i, a.digests[i], b.digests[i])
		}
	}
}
