package discovery

import (
	"errors"
	"testing"
	"time"

	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/phproto"
	"peerhood/internal/plugin"
	"peerhood/internal/storage"
)

// fakePlugin scripts inquiry responses and fetch results without a world.
type fakePlugin struct {
	addr      device.Addr
	responses []plugin.InquiryResult
	// fetch maps target MAC to a scripted daemon-port conversation.
	fetch    map[string]fetchScript
	inquired int
	dials    int
}

type fetchScript struct {
	info device.Info
	nb   []phproto.NeighborEntry
	err  error
	// store, when set, makes the fake a sync-capable responder answering
	// neighbourhood and versioned-sync requests from a live storage. When
	// nil the fake behaves like a legacy daemon: it hangs up on the sync
	// handshake.
	store *storage.Storage
	// sync, when set, overrides the sync answer (protocol-fault injection).
	sync func(*phproto.NeighborhoodSyncRequest) *phproto.NeighborhoodSync
}

var _ plugin.Plugin = (*fakePlugin)(nil)

func (f *fakePlugin) Tech() device.Tech             { return device.TechBluetooth }
func (f *fakePlugin) Addr() device.Addr             { return f.addr }
func (f *fakePlugin) QualityTo(a device.Addr) int   { return 240 }
func (f *fakePlugin) DiscoveryCycle() time.Duration { return 10 * time.Second }
func (f *fakePlugin) Close() error                  { return nil }
func (f *fakePlugin) Inquire() []plugin.InquiryResult {
	f.inquired++
	return append([]plugin.InquiryResult(nil), f.responses...)
}

func (f *fakePlugin) Listen(port uint16) (plugin.Listener, error) {
	return nil, errors.New("fake: no listeners")
}

// Dial serves the scripted fetch conversation through an in-memory conn.
func (f *fakePlugin) Dial(to device.Addr, port uint16) (plugin.Conn, error) {
	f.dials++
	script, ok := f.fetch[to.MAC]
	if !ok {
		return nil, plugin.ErrRefused
	}
	if script.err != nil {
		return nil, script.err
	}
	a, b := newFakeConnPair(f.addr, to)
	go serveScript(b, script)
	return a, nil
}

func serveScript(c plugin.Conn, s fetchScript) {
	defer c.Close()
	for {
		msg, err := phproto.Read(c)
		if err != nil {
			return
		}
		switch req := msg.(type) {
		case *phproto.InfoRequest:
			switch req.Kind {
			case phproto.InfoDevice:
				info := s.info
				info.Siblings = nil
				_ = phproto.Write(c, &phproto.DeviceInfo{Info: info})
			case phproto.InfoDeviceEx:
				if s.store == nil && s.sync == nil {
					return // legacy daemon: hang up on identity requests
				}
				_ = phproto.Write(c, &phproto.DeviceInfo{Info: s.info})
			case phproto.InfoNeighborhood:
				nb := s.nb
				if s.store != nil {
					nb = s.store.WireEntries()
				}
				_ = phproto.Write(c, &phproto.Neighborhood{Entries: nb})
			default:
				return
			}
		case *phproto.NeighborhoodSyncRequest:
			switch {
			case s.sync != nil:
				_ = phproto.Write(c, s.sync(req))
			case s.store != nil:
				_ = phproto.Write(c, s.store.SyncResponse(req.Epoch, req.Gen, req.Flags&phproto.SyncFlagSiblings != 0))
			default:
				return // legacy daemon: hang up on the handshake
			}
		default:
			return
		}
	}
}

// fakeConn is a minimal in-memory duplex plugin.Conn.
type fakeConn struct {
	in      chan []byte
	out     chan []byte
	local   device.Addr
	remote  device.Addr
	closed  chan struct{}
	pending []byte
}

func newFakeConnPair(a, b device.Addr) (plugin.Conn, plugin.Conn) {
	x := make(chan []byte, 64)
	y := make(chan []byte, 64)
	closed := make(chan struct{})
	return &fakeConn{in: x, out: y, local: a, remote: b, closed: closed},
		&fakeConn{in: y, out: x, local: b, remote: a, closed: closed}
}

func (c *fakeConn) Read(p []byte) (int, error) {
	if len(c.pending) == 0 {
		select {
		case data, ok := <-c.in:
			if !ok {
				return 0, errors.New("fake conn closed")
			}
			c.pending = data
		case <-c.closed:
			return 0, errors.New("fake conn closed")
		}
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

func (c *fakeConn) Write(p []byte) (int, error) {
	buf := append([]byte(nil), p...)
	select {
	case c.out <- buf:
		return len(p), nil
	case <-c.closed:
		return 0, errors.New("fake conn closed")
	}
}

func (c *fakeConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

func (c *fakeConn) LocalAddr() device.Addr  { return c.local }
func (c *fakeConn) RemoteAddr() device.Addr { return c.remote }
func (c *fakeConn) Quality() int            { return 240 }

func bt(mac string) device.Addr { return device.Addr{Tech: device.TechBluetooth, MAC: mac} }

func newFakeSetup(legacy bool) (*fakePlugin, *storage.Storage, *Discoverer) {
	fp := &fakePlugin{addr: bt("self"), fetch: make(map[string]fetchScript)}
	st := storage.New(storage.Config{Clock: clock.NewManual()})
	st.AddSelfAddr(fp.addr)
	d := New(Config{Store: st, Plugin: fp, Clock: clock.NewManual(), LegacyOneHop: legacy})
	return fp, st, d
}

func TestRoundFetchesAndMerges(t *testing.T) {
	fp, st, d := newFakeSetup(false)
	fp.responses = []plugin.InquiryResult{{Addr: bt("B"), Quality: 240}}
	fp.fetch["B"] = fetchScript{
		info: device.Info{Name: "B", Addr: bt("B"), Mobility: device.Static},
		nb: []phproto.NeighborEntry{
			{Info: device.Info{Name: "C", Addr: bt("C")}, Jumps: 0, QualitySum: 238, QualityMin: 238},
		},
	}
	rep := d.RunRound()
	if rep.Responses != 1 || rep.Fetches != 1 || rep.FetchErrors != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Merge.Added != 1 {
		t.Fatalf("merge = %+v, want C added", rep.Merge)
	}
	if st.Len() != 2 {
		t.Fatalf("storage = %d entries, want B and C", st.Len())
	}
	c, _ := st.Lookup(bt("C"))
	best, _ := c.Best()
	if best.Jumps != 1 || best.Bridge != bt("B") {
		t.Fatalf("C route = %+v", best)
	}
}

func TestLegacyModeDropsIndirectEntries(t *testing.T) {
	fp, st, d := newFakeSetup(true)
	fp.responses = []plugin.InquiryResult{{Addr: bt("B"), Quality: 240}}
	fp.fetch["B"] = fetchScript{
		info: device.Info{Name: "B", Addr: bt("B")},
		nb: []phproto.NeighborEntry{
			{Info: device.Info{Name: "C", Addr: bt("C")}, Jumps: 0, QualitySum: 238, QualityMin: 238},
			{Info: device.Info{Name: "far", Addr: bt("F")}, Jumps: 1, Bridge: bt("C"), QualitySum: 470, QualityMin: 233},
		},
	}
	d.RunRound()
	if _, ok := st.Lookup(bt("C")); !ok {
		t.Fatal("direct neighbour of B not learned in legacy mode")
	}
	if _, ok := st.Lookup(bt("F")); ok {
		t.Fatal("legacy mode accepted a 2-jump entry (coverage exclusion should apply)")
	}
}

func TestFetchErrorCountsButKeepsKnownDeviceAlive(t *testing.T) {
	fp, st, d := newFakeSetup(false)
	fp.responses = []plugin.InquiryResult{{Addr: bt("B"), Quality: 240}}
	fp.fetch["B"] = fetchScript{info: device.Info{Name: "B", Addr: bt("B")}}
	d.RunRound()
	if _, ok := st.Lookup(bt("B")); !ok {
		t.Fatal("B not learned")
	}

	// Now every fetch faults, but B still answers inquiries: it must not
	// age out (fig 3.12's refresh path). Force refetches by making the
	// store see the device as stale each round.
	fp.fetch["B"] = fetchScript{err: plugin.ErrConnectFault}
	for i := 0; i < 5; i++ {
		rep := d.RunRound()
		_ = rep
	}
	if _, ok := st.Lookup(bt("B")); !ok {
		t.Fatal("responding device aged out because its fetches failed")
	}
}

func TestUnknownDeviceWithFailingFetchNotStored(t *testing.T) {
	fp, st, d := newFakeSetup(false)
	fp.responses = []plugin.InquiryResult{{Addr: bt("X"), Quality: 240}}
	fp.fetch["X"] = fetchScript{err: plugin.ErrRefused} // not PeerHood capable
	rep := d.RunRound()
	if rep.FetchErrors != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if st.Len() != 0 {
		t.Fatal("non-PeerHood device stored")
	}
}

func TestServiceCheckIntervalSkipsFetch(t *testing.T) {
	fp := &fakePlugin{addr: bt("self"), fetch: make(map[string]fetchScript)}
	clk := clock.NewManual()
	st := storage.New(storage.Config{Clock: clk})
	st.AddSelfAddr(fp.addr)
	d := New(Config{Store: st, Plugin: fp, Clock: clk, ServiceCheckInterval: time.Minute})

	fp.responses = []plugin.InquiryResult{{Addr: bt("B"), Quality: 240}}
	fp.fetch["B"] = fetchScript{info: device.Info{Name: "B", Addr: bt("B")}}

	d.RunRound() // first round fetches
	dialsAfterFirst := fp.dials
	d.RunRound() // fresh: no fetch
	if fp.dials != dialsAfterFirst {
		t.Fatalf("second round fetched although info was fresh (%d -> %d dials)", dialsAfterFirst, fp.dials)
	}
	clk.Advance(2 * time.Minute)
	d.RunRound() // stale again: fetch
	if fp.dials != dialsAfterFirst+1 {
		t.Fatalf("stale round did not re-fetch (%d dials)", fp.dials)
	}
}

func TestRoundsCounterAndStartStop(t *testing.T) {
	fp, _, _ := newFakeSetup(false)
	clk := clock.NewManual()
	st := storage.New(storage.Config{Clock: clk})
	d := New(Config{Store: st, Plugin: fp, Clock: clk, Cycle: 10 * time.Second})

	if d.Rounds() != 0 {
		t.Fatal("fresh discoverer has rounds")
	}
	d.RunRound()
	if d.Rounds() != 1 {
		t.Fatalf("rounds = %d", d.Rounds())
	}
	d.Start()
	d.Start() // idempotent
	d.Stop()
	d.Stop() // idempotent
}

func TestNewPanicsOnMissingDeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without deps did not panic")
		}
	}()
	New(Config{})
}
