package storage

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/phproto"
	"peerhood/internal/rng"
)

// replica mirrors a peer's view of one storage's transmitted table, applied
// through the same FULL/DELTA messages the wire carries.
type replica struct {
	epoch   uint64
	gen     uint64
	entries map[device.Addr]phproto.NeighborEntry
}

func (r *replica) applyFull(epoch, gen uint64, entries []phproto.NeighborEntry) {
	r.epoch, r.gen = epoch, gen
	r.entries = make(map[device.Addr]phproto.NeighborEntry, len(entries))
	for _, en := range entries {
		r.entries[en.Info.Addr] = en
	}
}

func (r *replica) applyDelta(t *testing.T, d *phproto.NeighborhoodSync) {
	t.Helper()
	if d.FromGen != r.gen {
		t.Fatalf("delta from gen %d applied to replica at gen %d", d.FromGen, r.gen)
	}
	for _, en := range d.Entries {
		r.entries[en.Info.Addr] = en
	}
	for _, a := range d.Tombstones {
		delete(r.entries, a)
	}
	r.gen = d.ToGen
}

// checkAgainst asserts the replica equals the source's transmitted table and
// that the source's incremental digest equals a from-scratch recomputation.
func (r *replica) checkAgainst(t *testing.T, s *Storage, step int) {
	t.Helper()
	wire := s.WireEntries()
	dg := s.Digest()
	count, hash := phproto.DigestOf(wire)
	if int(count) != dg.Entries || hash != dg.Hash {
		t.Fatalf("step %d: incremental digest (n=%d h=%x) != recomputed (n=%d h=%x)",
			step, dg.Entries, dg.Hash, count, hash)
	}
	if len(r.entries) != len(wire) {
		t.Fatalf("step %d: replica has %d entries, source transmits %d", step, len(r.entries), len(wire))
	}
	for _, en := range wire {
		got, ok := r.entries[en.Info.Addr]
		if !ok {
			t.Fatalf("step %d: replica missing %v", step, en.Info.Addr)
		}
		if !reflect.DeepEqual(got, en) {
			t.Fatalf("step %d: replica row for %v:\n got  %+v\n want %+v", step, en.Info.Addr, got, en)
		}
	}
}

// overWire sends a sync answer through the codec and returns what the
// fetcher decodes: the storage hands out its rows pre-encoded, so Entries
// exist only on the receiving side.
func overWire(t *testing.T, resp *phproto.NeighborhoodSync) *phproto.NeighborhoodSync {
	t.Helper()
	var buf bytes.Buffer
	if err := phproto.Write(&buf, resp); err != nil {
		t.Fatalf("encoding sync answer: %v", err)
	}
	got, err := phproto.ReadExpect[*phproto.NeighborhoodSync](&buf)
	if err != nil {
		t.Fatalf("decoding sync answer: %v", err)
	}
	return got
}

// syncOnce pulls a delta (or a full table when the window cannot cover the
// gap) from src into r, verifying the advertised digest.
func syncOnce(t *testing.T, src *Storage, r *replica) {
	t.Helper()
	resp := overWire(t, src.SyncResponse(r.epoch, r.gen, true))
	if resp.Full {
		r.applyFull(resp.Epoch, resp.ToGen, resp.Entries)
	} else {
		r.applyDelta(t, resp)
	}
	count, hash := phproto.DigestOf(mapValues(r.entries))
	if count != resp.DigestCount || hash != resp.DigestHash {
		t.Fatalf("replica digest (n=%d h=%x) != advertised (n=%d h=%x), full=%v",
			count, hash, resp.DigestCount, resp.DigestHash, resp.Full)
	}
}

func mapValues(m map[device.Addr]phproto.NeighborEntry) []phproto.NeighborEntry {
	out := make([]phproto.NeighborEntry, 0, len(m))
	for _, en := range m {
		out = append(out, en)
	}
	return out
}

// TestDeltaChainReconstructsStorage is the delta analogue of the
// grid≡full-scan property test: for any random mutation sequence, a FULL
// fetch followed by a chain of DELTAs reconstructs exactly the table the
// source transmits — including through delta-window truncation, which must
// force a FULL fallback rather than a wrong delta.
func TestDeltaChainReconstructsStorage(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		for _, journalLimit := range []int{16, DefaultJournalLimit} {
			t.Run(fmt.Sprintf("seed=%d/journal=%d", seed, journalLimit), func(t *testing.T) {
				src := rng.New(seed)
				s := New(Config{Clock: clock.NewManual(), JournalLimit: journalLimit})
				s.AddSelfAddr(btAddr("self"))

				r := &replica{}
				syncOnce(t, s, r) // first contact: FULL of an empty table
				r.checkAgainst(t, s, -1)

				for step := 0; step < 400; step++ {
					mutateRandomly(s, src)
					if src.Intn(4) == 0 { // sync roughly every 4 mutations
						syncOnce(t, s, r)
						r.checkAgainst(t, s, step)
					}
				}
				syncOnce(t, s, r)
				r.checkAgainst(t, s, 400)
			})
		}
	}
}

var (
	mutationMACs = []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	mutationMobs = []device.Mobility{device.Static, device.Hybrid, device.Dynamic}
)

// mutateRandomly applies one random storage mutation over a small address
// space: direct contacts, bridged reports, a bridge losing its table, an
// aging round, and direct-route erasure.
func mutateRandomly(s *Storage, src *rng.Source) {
	addrAt := func(i int) device.Addr { return btAddr(mutationMACs[i]) }
	i := src.Intn(len(mutationMACs))
	target := addrAt(i)
	switch src.Intn(6) {
	case 0, 1: // direct contact with some quality
		s.UpsertDirect(device.Info{
			Name:     "dev-" + mutationMACs[i],
			Addr:     target,
			Mobility: mutationMobs[src.Intn(3)],
		}, 200+src.Intn(56))
	case 2: // bridged report
		j := src.Intn(len(mutationMACs))
		s.MergeNeighborhood(target, 200+src.Intn(56), []phproto.NeighborEntry{{
			Info:       device.Info{Name: "dev-" + mutationMACs[j], Addr: addrAt(j), Mobility: mutationMobs[src.Intn(3)]},
			Jumps:      uint8(src.Intn(3)),
			QualitySum: uint32(200 + src.Intn(56)),
			QualityMin: uint8(200 + src.Intn(56)),
		}})
	case 3: // bridge reports an empty table: drops its routes
		s.MergeNeighborhood(target, 200+src.Intn(56), nil)
	case 4: // the device stops answering inquiries
		s.AgeRound(device.TechBluetooth, map[device.Addr]bool{})
	case 5:
		s.RemoveDirect(target)
	}
}

// TestSyncResponseMatchesRenderedFrames pins the cached rows to a fresh
// render: after every mutation, for a first contact, the window's floor
// and the last 64 generations it covers, the frame
// SyncResponse encodes must equal, byte for byte, the frame of the same
// answer built from rendered Entries — the rows stamped after that
// generation (all of them for a FULL), rendered now. A cached row that a
// mutation failed to re-render, or a selection that misses a changed row,
// shows up as a differing frame. Descriptor changes (services, siblings),
// hop-count and weakest-hop changes under an unchanged quality sum,
// bridge-only changes and bridge-link drift
// ride along, since each transmitted field is compared on its own before
// a row is re-encoded.
func TestSyncResponseMatchesRenderedFrames(t *testing.T) {
	frame := func(m *phproto.NeighborhoodSync) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := phproto.Write(&buf, m); err != nil {
			t.Fatalf("encoding: %v", err)
		}
		return buf.Bytes()
	}
	svcs := [][]device.ServiceInfo{nil, {{Name: "echo", Port: 7}}, {{Name: "echo", Port: 7}, {Name: "ftp", Attr: "v=2", Port: 21}}}
	for _, seed := range []int64{1, 2, 7, 42} {
		for _, journalLimit := range []int{16, DefaultJournalLimit} {
			t.Run(fmt.Sprintf("seed=%d/journal=%d", seed, journalLimit), func(t *testing.T) {
				src := rng.New(seed)
				s := New(Config{Clock: clock.NewManual(), JournalLimit: journalLimit})
				s.AddSelfAddr(btAddr("self"))
				for step := 0; step < 400; step++ {
					mutateRandomly(s, src)
					i, j := src.Intn(len(mutationMACs)), src.Intn(len(mutationMACs))
					switch src.Intn(6) {
					case 0: // a fetched descriptor replaces the stored one
						name := []string{"dev-", "renamed-"}[src.Intn(2)] + mutationMACs[i]
						in := info(name, mutationMACs[i], mutationMobs[src.Intn(3)], svcs[src.Intn(len(svcs))]...)
						if src.Intn(2) == 0 {
							in.Siblings = []device.Addr{{Tech: device.TechWLAN, MAC: mutationMACs[i]}}
						}
						s.UpdateInfo(in)
					case 1: // one route field of a row only aa bridges moves, the others stay
						en := phproto.NeighborEntry{
							Info:       device.Info{Name: "solo", Addr: btAddr("solo")},
							QualitySum: 480,
							QualityMin: 240,
						}
						switch src.Intn(3) {
						case 0:
							en.Jumps = uint8(src.Intn(2))
						case 1:
							en.QualitySum += uint32(src.Intn(3))
						case 2:
							en.QualityMin += uint8(src.Intn(3))
						}
						s.MergeNeighborhoodDelta(btAddr("aa"), 255, []phproto.NeighborEntry{en}, nil)
					case 2: // the link to a bridge drifts
						s.RefreshBridgeLink(btAddr(mutationMACs[i]), 200+src.Intn(56))
					case 3: // two bridges report a row alike, the first loses it: only the bridge moves
						k := src.Intn(len(mutationMACs))
						row := []phproto.NeighborEntry{{
							Info:       device.Info{Name: "dev-" + mutationMACs[k], Addr: btAddr(mutationMACs[k])},
							QualitySum: 470,
							QualityMin: 235,
						}}
						s.MergeNeighborhoodDelta(btAddr(mutationMACs[i]), 240, row, nil)
						s.MergeNeighborhoodDelta(btAddr(mutationMACs[j]), 240, row, nil)
						s.MergeNeighborhoodDelta(btAddr(mutationMACs[i]), 240, nil, []device.Addr{row[0].Info.Addr})
					}
					dg := s.Digest()
					s.mu.RLock()
					floor := s.floor
					s.mu.RUnlock()
					// The floor itself, then the last 64 generations: a
					// stale row shows in the newest deltas.
					check := func(epoch, since uint64) {
						resp := s.SyncResponse(epoch, since, true)
						got := frame(resp)
						want := *overWire(t, resp)
						want.Entries = nil
						for _, en := range s.WireEntries() {
							if e, _ := s.Lookup(en.Info.Addr); want.Full || e.Gen > since {
								want.Entries = append(want.Entries, en)
							}
						}
						if !bytes.Equal(got, frame(&want)) {
							t.Fatalf("step %d, since %d (full=%v): cached frame differs from the rendered one", step, since, resp.Full)
						}
					}
					check(0, 0) // first contact: every row
					for since := floor; since <= dg.Gen; since++ {
						if since > floor && since+64 < dg.Gen {
							since = dg.Gen - 64
						}
						check(dg.Epoch, since)
					}
				}
			})
		}
	}
}

// TestDeltaWindowFloor pins which generations a delta still reaches to
// the bounded change journal the window replaced: one record per
// generation, the older half dropped whenever the records exceed the
// limit, deltas served from one below the oldest record kept. The
// DELTA/FULL choice for every requested generation must match it.
func TestDeltaWindowFloor(t *testing.T) {
	const limit = 8
	s := New(Config{Clock: clock.NewManual(), JournalLimit: limit})
	var journal []uint64 // the reference: generations of retained records
	floor := uint64(0)
	for q := 0; q < 60; q++ {
		s.UpsertDirect(info("b", "bb", device.Static), 200+q%50)
		gen := s.Digest().Gen
		journal = append(journal, gen)
		if len(journal) > limit {
			journal = journal[len(journal)/2:]
			floor = journal[0] - 1
		}
		for since := uint64(0); since <= gen; since++ {
			full := s.SyncResponse(s.Digest().Epoch, since, true).Full
			if want := since < floor; full != want {
				t.Fatalf("gen %d, since %d: full = %v, want %v (floor %d)", gen, since, full, want, floor)
			}
		}
	}
}

// TestAgeRoundGenerationCountIsOrderFree: an entry whose best and
// second-best routes both run through bridges that lose their direct route
// in the same aging round must take the same number of generations however
// the storage's map happens to iterate. Dropping the routes bridge by
// bridge, touching after each, bumped the entry once or twice depending
// on which bridge came first.
func TestAgeRoundGenerationCountIsOrderFree(t *testing.T) {
	for trial := 0; trial < 32; trial++ {
		s := newTestStorage("self")
		// Three static bridges; the target x is best via a, then b, then c.
		for i, b := range []string{"a", "b", "c"} {
			s.UpsertDirect(info(b, b, device.Static), 250-5*i)
			s.MergeNeighborhood(btAddr(b), 250-5*i, []phproto.NeighborEntry{
				{Info: info("x", "x", device.Static), QualitySum: 240, QualityMin: 240},
			})
		}
		e, _ := s.Lookup(btAddr("x"))
		if len(e.Routes) != 3 || e.Routes[0].Bridge != btAddr("a") || e.Routes[1].Bridge != btAddr("b") {
			t.Fatalf("trial %d: x routes = %v, want via a, b, c", trial, e.Routes)
		}
		onlyC := map[device.Addr]bool{btAddr("c"): true}
		for i := 0; i < DefaultMaxMissedLoops; i++ {
			gen := s.Digest().Gen
			s.AgeRound(device.TechBluetooth, onlyC)
			if got := s.Digest().Gen; got != gen {
				t.Fatalf("trial %d: a missed loop below the limit advanced gen %d -> %d", trial, gen, got)
			}
		}
		// a and b lose their direct routes (two gone rows) and x falls back
		// to its via-c route (one changed row): three generations.
		gen := s.Digest().Gen
		if _, lost := s.AgeRound(device.TechBluetooth, onlyC); len(lost) != 2 {
			t.Fatalf("trial %d: lost bridges = %v, want [a b]", trial, lost)
		}
		if got := s.Digest().Gen - gen; got != 3 {
			t.Fatalf("trial %d: aging round advanced the generation by %d, want 3", trial, got)
		}
		if e, _ := s.Lookup(btAddr("x")); len(e.Routes) != 1 || e.Routes[0].Bridge != btAddr("c") {
			t.Fatalf("trial %d: x routes = %v, want via c only", trial, e.Routes)
		}
	}
}

func TestUnchangedMutationsDoNotAdvanceGeneration(t *testing.T) {
	s := newTestStorage("self")
	s.UpsertDirect(info("b", "bb", device.Static), 240)
	gen := s.Digest().Gen
	if gen == 0 {
		t.Fatal("first upsert did not advance the generation")
	}
	// Same device, same quality, over and over: peers see nothing new.
	for i := 0; i < 10; i++ {
		s.UpsertDirect(info("b", "bb", device.Static), 240)
	}
	if got := s.Digest().Gen; got != gen {
		t.Fatalf("identical refreshes advanced gen %d -> %d", gen, got)
	}
	s.UpsertDirect(info("b", "bb", device.Static), 250)
	if got := s.Digest().Gen; got <= gen {
		t.Fatal("quality change did not advance the generation")
	}
}

func TestSyncResponseEmptyDelta(t *testing.T) {
	s := newTestStorage("self")
	s.UpsertDirect(info("b", "bb", device.Static), 240)
	dg := s.Digest()
	delta := overWire(t, s.SyncResponse(dg.Epoch, dg.Gen, true))
	if delta.Full {
		t.Fatal("up-to-date generation not coverable")
	}
	if len(delta.Entries) != 0 || len(delta.Tombstones) != 0 {
		t.Fatalf("delta = %+v, want empty", delta)
	}
	if dg2 := s.Digest(); dg2 != dg || delta.ToGen != dg.Gen ||
		delta.DigestCount != uint32(dg.Entries) || delta.DigestHash != dg.Hash {
		t.Fatalf("digest changed with no mutation: %+v vs %+v (answer %+v)", dg, dg2, delta)
	}
}

func TestSyncResponseProducesTombstone(t *testing.T) {
	s := newTestStorage("self")
	s.UpsertDirect(info("b", "bb", device.Static), 240)
	gen := s.Digest().Gen
	s.RemoveDirect(btAddr("bb"))
	delta := overWire(t, s.SyncResponse(s.Digest().Epoch, gen, true))
	if delta.Full {
		t.Fatal("delta window lost one-mutation history")
	}
	if len(delta.Tombstones) != 1 || delta.Tombstones[0] != btAddr("bb") {
		t.Fatalf("delta = %+v, want tombstone for bb", delta)
	}
}

func TestSyncResponseFutureGenerationForcesFull(t *testing.T) {
	s := newTestStorage("self")
	s.UpsertDirect(info("b", "bb", device.Static), 240)
	if resp := s.SyncResponse(s.Digest().Epoch, s.Digest().Gen+100, true); !resp.Full {
		t.Fatal("a generation from the future was served as a delta")
	}
}

func TestJournalTruncationForcesFull(t *testing.T) {
	s := New(Config{Clock: clock.NewManual(), JournalLimit: 8})
	s.UpsertDirect(info("b", "bb", device.Static), 200)
	gen := s.Digest().Gen
	for q := 201; q < 240; q++ { // 39 distinct changes blow the 8-generation window
		s.UpsertDirect(info("b", "bb", device.Static), q)
	}
	resp := s.SyncResponse(s.Digest().Epoch, gen, true)
	if !resp.Full {
		t.Fatalf("truncated window still claimed to cover an ancient generation: %+v", resp)
	}
}

func TestOversizeDeltaFallsBackToFull(t *testing.T) {
	// A delta window bigger than the wire's per-frame entry cap can cover
	// more distinct devices than one delta frame may carry; the responder
	// must serve FULL instead of an undecodable delta.
	s := New(Config{Clock: clock.NewManual(), JournalLimit: 3 * phproto.MaxEntries})
	for i := 0; i < phproto.MaxEntries+50; i++ {
		s.UpsertDirect(device.Info{
			Name: fmt.Sprintf("d%05d", i),
			Addr: btAddr(fmt.Sprintf("%05d", i)),
		}, 240)
	}
	if resp := s.SyncResponse(s.Digest().Epoch, 0, true); !resp.Full {
		t.Fatalf("delta covering %d devices claimed to be servable (wire cap %d)",
			phproto.MaxEntries+50, phproto.MaxEntries)
	}
}

func TestSyncResponseEpochMismatchForcesFull(t *testing.T) {
	s := newTestStorage("self")
	s.UpsertDirect(info("b", "bb", device.Static), 240)
	resp := s.SyncResponse(s.Digest().Epoch+1, s.Digest().Gen, true)
	if !resp.Full {
		t.Fatal("epoch mismatch (peer restart) answered with a delta")
	}
}

func TestDistinctStoragesHaveDistinctEpochs(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	if a.Digest().Epoch == b.Digest().Epoch {
		t.Fatal("two storages share an epoch")
	}
	if a.Digest().Epoch == 0 {
		t.Fatal("zero epoch would read as first contact on the wire")
	}
}

func TestMergeNeighborhoodDeltaTombstoneDropsBridgedRoute(t *testing.T) {
	s := newTestStorage("self")
	s.UpsertDirect(info("b", "bb", device.Static), 240)
	s.MergeNeighborhoodDelta(btAddr("bb"), 240, []phproto.NeighborEntry{
		{Info: info("c", "cc", device.Dynamic), Jumps: 0, QualitySum: 235, QualityMin: 235},
	}, nil)
	if _, ok := s.Lookup(btAddr("cc")); !ok {
		t.Fatal("delta entry not merged")
	}
	res := s.MergeNeighborhoodDelta(btAddr("bb"), 240, nil, []device.Addr{btAddr("cc")})
	if res.Removed != 1 {
		t.Fatalf("res = %+v, want 1 removed", res)
	}
	if _, ok := s.Lookup(btAddr("cc")); ok {
		t.Fatal("tombstoned device still stored")
	}
}

func TestMergeNeighborhoodDeltaTombstoneKeepsOtherRoutes(t *testing.T) {
	s := newTestStorage("self")
	s.UpsertDirect(info("b", "bb", device.Static), 240)
	s.UpsertDirect(info("c", "cc", device.Dynamic), 235)
	// bb reports it can reach cc; we also see cc directly.
	s.MergeNeighborhoodDelta(btAddr("bb"), 240, []phproto.NeighborEntry{
		{Info: info("c", "cc", device.Dynamic), Jumps: 0, QualitySum: 235, QualityMin: 235},
	}, nil)
	// bb loses cc: only the via-bb route goes, the direct one stays.
	s.MergeNeighborhoodDelta(btAddr("bb"), 240, nil, []device.Addr{btAddr("cc")})
	e, ok := s.Lookup(btAddr("cc"))
	if !ok || !e.HasDirect() {
		t.Fatalf("direct route lost with the tombstone: %+v, %v", e, ok)
	}
	for _, r := range e.Routes {
		if r.Bridge == btAddr("bb") {
			t.Fatalf("via-bb route survived its tombstone: %+v", e.Routes)
		}
	}
}

func TestAgeRoundReportsLostBridges(t *testing.T) {
	s := newTestStorage("self")
	s.UpsertDirect(info("b", "bb", device.Static), 240)
	s.MergeNeighborhood(btAddr("bb"), 240, []phproto.NeighborEntry{
		{Info: info("x", "xx", device.Dynamic), Jumps: 0, QualitySum: 235, QualityMin: 235},
	})
	none := map[device.Addr]bool{}
	var removed, lost []device.Addr
	for i := 0; i <= DefaultMaxMissedLoops; i++ {
		removed, lost = s.AgeRound(device.TechBluetooth, none)
	}
	if len(lost) != 1 || lost[0] != btAddr("bb") {
		t.Fatalf("lost bridges = %v, want [bb]", lost)
	}
	found := false
	for _, a := range removed {
		if a == btAddr("xx") {
			found = true
		}
	}
	if !found {
		t.Fatalf("removed = %v, want xx swept with its bridge", removed)
	}
}

// capEvictionStorage builds a storage where device dd was reported by
// three bridges but MaxAlternates kept only two routes. It returns the
// storage, the evicted route's bridge, and the surviving bridges.
func capEvictionStorage(t *testing.T) (*Storage, device.Addr, []device.Addr) {
	t.Helper()
	s := New(Config{Clock: clock.NewManual(), MaxAlternates: 2})
	s.AddSelfAddr(btAddr("self"))
	bridges := []string{"b1", "b2", "b3"}
	for i, b := range bridges {
		s.UpsertDirect(info(b, b, device.Static), 210+10*i)
		s.MergeNeighborhood(btAddr(b), 210+10*i, []phproto.NeighborEntry{
			{Info: info("d", "dd", device.Static), QualitySum: 200, QualityMin: 200},
		})
	}
	e, ok := s.Lookup(btAddr("dd"))
	if !ok || len(e.Routes) != 2 {
		t.Fatalf("dd entry = %+v (ok=%v), want 2 routes after the cap", e, ok)
	}
	var evicted device.Addr
	var surviving []device.Addr
	for _, b := range bridges {
		kept := false
		for _, r := range e.Routes {
			if r.Bridge == btAddr(b) {
				kept = true
			}
		}
		if kept {
			surviving = append(surviving, btAddr(b))
		} else {
			evicted = btAddr(b)
		}
	}
	if evicted.IsZero() {
		t.Fatalf("no route evicted: %+v", e.Routes)
	}
	return s, evicted, surviving
}

// TestAlternatesCapEvictionReported: a route dropped by the MaxAlternates
// cap is knowledge lost on our side only — the bridge's storage is
// unchanged, so its deltas would never re-offer it. When the device later
// loses its remembered routes, the storage must report the evicted
// bridge so the discoverer resets its sync state and re-learns the route
// from a full fetch. While other routes survive, nothing is reported:
// resetting on every eviction would degrade a dense neighbourhood to
// permanent full sync.
func TestAlternatesCapEvictionReported(t *testing.T) {
	s, evicted, surviving := capEvictionStorage(t)
	if got := s.TakeEvictedBridges(device.TechBluetooth); len(got) != 0 {
		t.Fatalf("evictions reported while dd is still reachable: %v", got)
	}
	// The surviving bridges stop reporting dd; its last routes die.
	for _, b := range surviving {
		s.MergeNeighborhood(b, 220, nil)
	}
	if _, ok := s.Lookup(btAddr("dd")); ok {
		t.Fatal("dd still stored after its bridges dropped it")
	}
	if got := s.TakeEvictedBridges(device.TechWLAN); len(got) != 0 {
		t.Fatalf("wlan evictions from a bluetooth cap: %v", got)
	}
	got := s.TakeEvictedBridges(device.TechBluetooth)
	if len(got) != 1 || got[0] != evicted {
		t.Fatalf("evicted bridges = %v, want [%v]", got, evicted)
	}
	if again := s.TakeEvictedBridges(device.TechBluetooth); len(again) != 0 {
		t.Fatalf("evictions not drained: %v", again)
	}
}

// TestEvictionForgottenWhenBridgeLosesDevice: a tombstone from the evicted
// route's bridge means that bridge no longer reaches the device either —
// removing the device then must not reset the bridge's sync state.
func TestEvictionForgottenWhenBridgeLosesDevice(t *testing.T) {
	s, evicted, surviving := capEvictionStorage(t)
	s.MergeNeighborhoodDelta(evicted, 210, nil, []device.Addr{btAddr("dd")})
	for _, b := range surviving {
		s.MergeNeighborhood(b, 220, nil)
	}
	if _, ok := s.Lookup(btAddr("dd")); ok {
		t.Fatal("dd still stored after its bridges dropped it")
	}
	if got := s.TakeEvictedBridges(device.TechBluetooth); len(got) != 0 {
		t.Fatalf("reset requested for a bridge that tombstoned the device: %v", got)
	}
}

func TestRefreshBridgeLinkTracksLinkDrift(t *testing.T) {
	s := newTestStorage("self")
	s.UpsertDirect(info("b", "bb", device.Static), 240)
	s.MergeNeighborhoodDelta(btAddr("bb"), 240, []phproto.NeighborEntry{
		{Info: info("x", "xx", device.Dynamic), Jumps: 0, QualitySum: 230, QualityMin: 230},
	}, nil)
	e, _ := s.Lookup(btAddr("xx"))
	best, _ := e.Best()
	if best.QualitySum != 470 || best.QualityMin != 230 {
		t.Fatalf("initial route = %+v", best)
	}
	if best.BridgeMobility != device.Static {
		t.Fatalf("initial bridge mobility = %v", best.BridgeMobility)
	}

	// We walk away from bb: its link drops, the peer's table is unchanged
	// (empty delta), but the via-bb route must be re-priced.
	s.RefreshBridgeLink(btAddr("bb"), 180)
	e, _ = s.Lookup(btAddr("xx"))
	best, _ = e.Best()
	if best.QualitySum != 180+230 || best.QualityMin != 180 {
		t.Fatalf("refreshed route = %+v, want sum %d min 180", best, 180+230)
	}

	// Re-pricing is a wire-visible change: peers must hear about it.
	gen := s.Digest().Gen
	s.RefreshBridgeLink(btAddr("bb"), 180) // identical: no-op
	if s.Digest().Gen != gen {
		t.Fatal("identical refresh advanced the generation")
	}
	s.RefreshBridgeLink(btAddr("bb"), 220)
	if s.Digest().Gen <= gen {
		t.Fatal("quality drift did not advance the generation")
	}

	// bb's descriptor turns dynamic: the via-bb route must re-rank the
	// way every full-exchange merge would (fig 3.13 prefers static
	// bridges), even though bb's own table rows are unchanged.
	mobSum := best.MobilitySum
	s.UpdateInfo(info("b", "bb", device.Dynamic))
	s.RefreshBridgeLink(btAddr("bb"), 220)
	e, _ = s.Lookup(btAddr("xx"))
	best, _ = e.Best()
	if best.BridgeMobility != device.Dynamic {
		t.Fatalf("bridge mobility not refreshed: %+v", best)
	}
	if want := mobSum + int(device.Dynamic) - int(device.Static); best.MobilitySum != want {
		t.Fatalf("mobility sum = %d, want %d", best.MobilitySum, want)
	}
}

func TestEntryGenStamped(t *testing.T) {
	s := newTestStorage("self")
	s.UpsertDirect(info("b", "bb", device.Static), 240)
	e, _ := s.Lookup(btAddr("bb"))
	if e.Gen == 0 {
		t.Fatal("entry not stamped with its mutation generation")
	}
	prev := e.Gen
	s.UpsertDirect(info("b", "bb", device.Static), 250)
	e, _ = s.Lookup(btAddr("bb"))
	if e.Gen <= prev {
		t.Fatalf("gen not re-stamped on change: %d -> %d", prev, e.Gen)
	}
}

// TestConcurrentMutationAndSync exercises the versioned paths under the race
// detector: mutators, delta readers, and digest readers in parallel.
func TestConcurrentMutationAndSync(t *testing.T) {
	s := New(Config{Clock: clock.NewManual(), JournalLimit: 64})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(int64(w))
			for i := 0; i < 200; i++ {
				mac := fmt.Sprintf("m%d", src.Intn(8))
				switch src.Intn(3) {
				case 0:
					s.UpsertDirect(device.Info{Name: mac, Addr: btAddr(mac)}, 200+src.Intn(56))
				case 1:
					s.RemoveDirect(btAddr(mac))
				case 2:
					s.AgeRound(device.TechBluetooth, nil)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var epoch, gen uint64
			for i := 0; i < 200; i++ {
				resp := s.SyncResponse(epoch, gen, true)
				epoch, gen = resp.Epoch, resp.ToGen
				if resp.Full {
					s.WireEntries()
				}
				// The answer's rows must be its own: encoding them races
				// with the mutators re-rendering the cached ones.
				_ = phproto.Write(io.Discard, resp)
			}
		}()
	}
	wg.Wait()
	// After the dust settles the incremental digest must still match a
	// recomputation.
	count, hash := phproto.DigestOf(s.WireEntries())
	dg := s.Digest()
	if int(count) != dg.Entries || hash != dg.Hash {
		t.Fatalf("incremental digest diverged: (n=%d h=%x) vs (n=%d h=%x)", dg.Entries, dg.Hash, count, hash)
	}
}

// TestOversizeTableServedAsTruncatedSnapshot: a table beyond the wire's
// entry cap cannot be transmitted whole. The FULL fallback must serve a
// decodable truncated snapshot under the unsyncable epoch-0 convention —
// not an over-cap frame the fetcher would reject as malformed (and then
// misread as a legacy peer).
func TestOversizeTableServedAsTruncatedSnapshot(t *testing.T) {
	s := newTestStorage("self")
	for i := 0; i < phproto.MaxEntries+1; i++ {
		s.UpsertDirect(info("d", fmt.Sprintf("%05d", i), device.Static), 240)
	}
	resp := overWire(t, s.SyncResponse(0, 0, true))
	if !resp.Full || resp.Epoch != 0 || len(resp.Entries) != phproto.MaxEntries {
		t.Fatalf("full=%v epoch=%d entries=%d, want truncated epoch-0 snapshot",
			resp.Full, resp.Epoch, len(resp.Entries))
	}
	count, hash := phproto.DigestOf(resp.Entries)
	if count != resp.DigestCount || hash != resp.DigestHash {
		t.Fatal("snapshot digest does not cover the transmitted entries")
	}
}
