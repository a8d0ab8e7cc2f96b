package daemon_test

import (
	"sync/atomic"
	"testing"

	"peerhood/internal/daemon"
	"peerhood/internal/device"
	"peerhood/internal/geo"
	"peerhood/internal/mobility"
	"peerhood/internal/phproto"
	"peerhood/internal/phtest"
	"peerhood/internal/plugin"
)

// TestServeInfoDigest fetches the storage digest over the wire, as phctl's
// digest subcommand does.
func TestServeInfoDigest(t *testing.T) {
	w := phtest.InstantWorld(t, 31)
	a := phtest.AddNode(t, w, "a", geo.Pt(0, 0), device.Static)
	b := phtest.AddNode(t, w, "b", geo.Pt(3, 0), device.Dynamic)
	phtest.RunRounds([]*phtest.Node{a, b}, 1)

	conn, err := a.Plugin.Dial(b.Addr(), device.PortDaemon)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := phproto.Write(conn, &phproto.InfoRequest{Kind: phproto.InfoDigest}); err != nil {
		t.Fatal(err)
	}
	dig, err := phproto.ReadExpect[*phproto.DigestInfo](conn)
	if err != nil {
		t.Fatal(err)
	}
	want := b.Daemon.Storage().Digest()
	if dig.Epoch != want.Epoch || dig.Gen != want.Gen || int(dig.Entries) != want.Entries || dig.Hash != want.Hash {
		t.Fatalf("wire digest %+v != storage digest %+v", dig, want)
	}
	if dig.Entries == 0 || dig.Gen == 0 {
		t.Fatalf("digest %+v after a discovery round, want entries and generation > 0", dig)
	}
}

// TestServeNeighborhoodSync runs the handshake against a live daemon: FULL
// on first contact, an empty DELTA when repeated at the returned
// generation, all on one connection.
func TestServeNeighborhoodSync(t *testing.T) {
	w := phtest.InstantWorld(t, 32)
	a := phtest.AddNode(t, w, "a", geo.Pt(0, 0), device.Static)
	b := phtest.AddNode(t, w, "b", geo.Pt(3, 0), device.Dynamic)
	phtest.RunRounds([]*phtest.Node{a, b}, 1)

	conn, err := a.Plugin.Dial(b.Addr(), device.PortDaemon)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := phproto.Write(conn, &phproto.NeighborhoodSyncRequest{}); err != nil {
		t.Fatal(err)
	}
	full, err := phproto.ReadExpect[*phproto.NeighborhoodSync](conn)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Full || len(full.Entries) == 0 {
		t.Fatalf("first contact answered %+v, want a populated FULL", full)
	}
	count, hash := phproto.DigestOf(full.Entries)
	if count != full.DigestCount || hash != full.DigestHash {
		t.Fatalf("FULL digest (n=%d h=%x) does not cover its entries (n=%d h=%x)",
			full.DigestCount, full.DigestHash, count, hash)
	}

	if err := phproto.Write(conn, &phproto.NeighborhoodSyncRequest{Epoch: full.Epoch, Gen: full.ToGen}); err != nil {
		t.Fatal(err)
	}
	delta, err := phproto.ReadExpect[*phproto.NeighborhoodSync](conn)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Full || len(delta.Entries) != 0 || len(delta.Tombstones) != 0 {
		t.Fatalf("up-to-date request answered %+v, want an empty delta", delta)
	}
	if delta.FromGen != full.ToGen || delta.ToGen != full.ToGen {
		t.Fatalf("delta generations %d->%d, want %d->%d", delta.FromGen, delta.ToGen, full.ToGen, full.ToGen)
	}
}

// TestNeighborhoodSyncUnderLoadPenalty pins the penalty interplay: while a
// load penalty skews advertised rows, sync answers must be FULL snapshots
// stamped epoch 0 (unsyncable), so fetchers never record penalised
// fingerprints against a real generation; once the penalty clears, delta
// sync re-establishes cleanly.
func TestNeighborhoodSyncUnderLoadPenalty(t *testing.T) {
	w := phtest.InstantWorld(t, 33)
	a := phtest.AddNode(t, w, "a", geo.Pt(0, 0), device.Static)

	// A daemon like phtest's, but with a controllable load penalty.
	dev, err := w.AddDevice("busy", mobility.Static{At: geo.Pt(3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	radio, err := dev.AddRadio(device.TechBluetooth)
	if err != nil {
		t.Fatal(err)
	}
	var penalty atomic.Int64
	d, err := daemon.New(daemon.Config{
		Name:        "busy",
		Clock:       w.Clock(),
		LoadPenalty: func() int { return int(penalty.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddPlugin(plugin.NewSim(w, radio)); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(false); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	d.RunDiscoveryRound() // busy learns a, so it has a table to advertise

	conn, err := a.Plugin.Dial(radio.Addr(), device.PortDaemon)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sync := func(epoch, gen uint64) *phproto.NeighborhoodSync {
		t.Helper()
		if err := phproto.Write(conn, &phproto.NeighborhoodSyncRequest{Epoch: epoch, Gen: gen}); err != nil {
			t.Fatal(err)
		}
		resp, err := phproto.ReadExpect[*phproto.NeighborhoodSync](conn)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	penalty.Store(40)
	busy := sync(0, 0)
	if !busy.Full || busy.Epoch != 0 {
		t.Fatalf("penalised answer %+v, want FULL with epoch 0 (unsyncable)", busy)
	}
	if count, hash := phproto.DigestOf(busy.Entries); count != busy.DigestCount || hash != busy.DigestHash {
		t.Fatal("penalised FULL digest does not cover its transmitted entries")
	}
	// A fetcher that recorded (0, gen) keeps getting unsyncable FULLs.
	if again := sync(busy.Epoch, busy.ToGen); !again.Full || again.Epoch != 0 {
		t.Fatalf("second penalised answer %+v, want FULL with epoch 0", again)
	}

	penalty.Store(0)
	clean := sync(0, 0)
	if !clean.Full || clean.Epoch == 0 {
		t.Fatalf("post-penalty answer %+v, want FULL with the real epoch", clean)
	}
	if resynced := sync(clean.Epoch, clean.ToGen); resynced.Full || len(resynced.Entries) != 0 {
		t.Fatalf("delta sync did not re-establish after the penalty: %+v", resynced)
	}
}

// TestScopedSyncRequestHangsUp: the two bytes that once followed a sync
// request's Flags (a sync scope) are retired, so a 19-byte scoped request
// fails to decode and the daemon hangs up — with or without the siblings
// capability — while a flat fetch on a fresh connection is still served a
// populated FULL.
func TestScopedSyncRequestHangsUp(t *testing.T) {
	w := phtest.InstantWorld(t, 35)
	a := phtest.AddNode(t, w, "a", geo.Pt(0, 0), device.Static)
	b := phtest.AddNode(t, w, "b", geo.Pt(3, 0), device.Dynamic)
	phtest.RunRounds([]*phtest.Node{a, b}, 1)

	for _, flags := range []uint8{0, phproto.SyncFlagSiblings} {
		conn, err := a.Plugin.Dial(b.Addr(), device.PortDaemon)
		if err != nil {
			t.Fatal(err)
		}
		frame := []byte{byte(phproto.CmdNeighborhoodSyncRequest), 0, 0, 0, 19}
		frame = append(frame, make([]byte, 16)...) // epoch 0, gen 0
		frame = append(frame, flags, 1, 0)         // flags, scope, cell
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if msg, err := phproto.Read(conn); err == nil {
			t.Fatalf("scoped request (flags %#x) answered with %v, want a hang-up", flags, msg.Cmd())
		}
		_ = conn.Close()

		conn2, err := a.Plugin.Dial(b.Addr(), device.PortDaemon)
		if err != nil {
			t.Fatal(err)
		}
		if err := phproto.Write(conn2, &phproto.NeighborhoodSyncRequest{Flags: flags}); err != nil {
			t.Fatal(err)
		}
		full, err := phproto.ReadExpect[*phproto.NeighborhoodSync](conn2)
		if err != nil {
			t.Fatal(err)
		}
		if !full.Full || len(full.Entries) == 0 {
			t.Fatalf("flat fetch (flags %#x) after a scoped hang-up answered %+v, want a populated FULL", flags, full)
		}
		_ = conn2.Close()
	}
}
