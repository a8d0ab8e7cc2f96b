// Package discovery implements the thesis' Dynamic Device Discovery
// (ch. 3): the per-plugin inquiry loop of fig 3.12 — inquire, fetch
// information from new or stale devices over short connections, fold their
// transmitted DeviceStorages into ours (AnalyzeNeighbourhoodDevices,
// fig 3.13), and age out devices that stopped responding.
//
// Neighbourhood fetches are versioned: the discoverer remembers the
// (epoch, generation) of each peer's storage it last merged and asks only
// for the delta since then, falling back to the legacy full exchange for
// peers that predate the handshake and to a full resync whenever the
// advertised table digest stops matching its reconstruction. Per-round
// discovery traffic therefore scales with neighbourhood churn instead of
// neighbourhood size.
package discovery

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/events"
	"peerhood/internal/linkmon"
	"peerhood/internal/phproto"
	"peerhood/internal/plugin"
	"peerhood/internal/rng"
	"peerhood/internal/storage"
	"peerhood/internal/telemetry"
)

// Config parametrises one Discoverer (one per plugin, as in the thesis).
type Config struct {
	Store  *storage.Storage
	Plugin plugin.Plugin
	Clock  clock.Clock

	// Cycle is the period between inquiry rounds; zero takes the plugin's
	// nominal discovery cycle.
	Cycle time.Duration

	// ServiceCheckInterval is how stale a device's fetched information may
	// become before the next response triggers a re-fetch (fig 3.12's
	// energy-saving re-check interval). Zero means fetch every round.
	ServiceCheckInterval time.Duration

	// LegacyOneHop reproduces the pre-thesis PeerHood (§3.1, fig 3.3):
	// neighbourhood reports are only accepted for the reporter's *direct*
	// neighbours, so awareness stops at two jumps and the coverage
	// exclusion problem reappears. Used as the baseline in experiment
	// F3.3. Implies DisableDeltaSync.
	LegacyOneHop bool

	// DisableDeltaSync forces the legacy full-table exchange on every
	// fetch instead of the versioned delta handshake — the baseline side
	// of experiment S2's delta-vs-full comparison.
	DisableDeltaSync bool

	// DisableIdentity makes this discoverer fetch like a pre-identity
	// peer: plain InfoDevice instead of InfoDeviceEx, and sync requests
	// without the SyncFlagSiblings capability bit (so responders serve
	// legacy-form entries). The interop baseline for the cross-interface
	// identity plane.
	DisableIdentity bool

	// Bus, if set, receives DeviceAppeared when a never-before-stored
	// device is successfully fetched and DeviceLost when the aging sweep
	// removes one — the discovery half of the neighbourhood event feed.
	Bus *events.Bus
	// Monitor, if set, is fed every inquiry response's link quality, so
	// each discovery round doubles as a trend sample for every direct
	// neighbour.
	Monitor *linkmon.Monitor

	// Registry, if set, receives the discovery counters (rounds, fetches
	// by sync mode, errors, wire bytes, legacy fallbacks, digest
	// resyncs). Telemetry handles are nil-safe, so an unset registry
	// costs one predictable branch per observation.
	Registry *telemetry.Registry
	// Tracer, if set, records one span per neighbourhood fetch so
	// same-seed runs can be compared sync-for-sync.
	Tracer *telemetry.Tracer
}

// RoundReport summarises one discovery round.
type RoundReport struct {
	// Responses is how many devices answered the inquiry.
	Responses int
	// Fetches is how many information fetches were performed.
	Fetches int
	// FetchErrors counts fetch attempts that failed (connection fault, or
	// the device is not PeerHood-capable and refused the daemon port).
	FetchErrors int
	// Merge accumulates the AnalyzeNeighbourhoodDevices results.
	Merge storage.MergeResult
	// Removed lists devices aged out this round.
	Removed []device.Addr
	// DeltaFetches and FullFetches split the successful fetches by sync
	// mode; legacy exchanges count as full.
	DeltaFetches int
	FullFetches  int
	// SyncBytes counts the wire bytes read and written on this round's
	// fetch connections — the traffic the delta handshake exists to shrink.
	SyncBytes int64
	// MergeTime is the wall-clock time spent folding fetched
	// neighbourhoods into the storage this round.
	MergeTime time.Duration
}

// Discoverer runs the discovery loop of one plugin.
type Discoverer struct {
	cfg Config
	src *rng.Source

	// roundMu serialises rounds: a manually driven round and the
	// background loop must never interleave their inquiry/aging phases.
	// peers is only touched under it.
	roundMu sync.Mutex
	// peers is the per-peer sync state of the versioned neighbourhood
	// exchange; entries die with the peer (AgeRound removal).
	peers map[device.Addr]*peerSync

	mu     sync.Mutex
	rounds int64
	stop   chan struct{}
	done   chan struct{}

	// Telemetry handles, resolved once in New; all nil-safe.
	roundsCtr    *telemetry.Counter
	fetchesFull  *telemetry.Counter
	fetchesDelta *telemetry.Counter
	fetchErrs    *telemetry.Counter
	syncBytes    *telemetry.Counter
	roundBytes   *telemetry.Gauge
	legacyFalls  *telemetry.Counter
	resyncs      *telemetry.Counter
}

// legacyReprobeInterval is how many legacy fetches pass before the
// handshake is attempted again. A "legacy" verdict can be a misread
// transient fault (the peer dropped the connection mid-handshake for radio
// reasons), so it must decay: a true legacy peer costs one extra dial per
// interval, a misjudged modern peer gets its delta sync back within it.
const legacyReprobeInterval = 16

// peerSync is what the discoverer remembers about one peer's storage
// between rounds: the (epoch, generation) it last merged, plus a shadow of
// the peer's transmitted table as per-entry fingerprints so every delta can
// be verified against the advertised digest end to end.
type peerSync struct {
	// legacy marks a peer that closed the connection on the sync
	// handshake; it is fetched with the pre-handshake full exchange until
	// the next re-probe (sinceProbe counts the fetches since the verdict).
	legacy     bool
	sinceProbe int
	epoch      uint64
	gen        uint64
	hashes     map[device.Addr]uint64
	digest     uint64
	// lastQuality and lastMobility are the first-hop link quality and
	// bridge mobility class every via-this-peer route was last priced at
	// (by a full merge or a RefreshBridgeLink pass); lastQuality is -1
	// until the first merge. A delta round whose inquiry and descriptor
	// report the same values can skip the refresh scan entirely.
	lastQuality  int
	lastMobility device.Mobility
}

// syncResult is one fetched neighbourhood, ready to merge.
type syncResult struct {
	full       bool
	entries    []phproto.NeighborEntry
	tombstones []device.Addr
}

// apply folds a sync response into the shadow, fingerprinting each row by
// the bytes it arrived in (NeighborhoodSync.EntryHash), so verification
// re-encodes nothing. It returns false when the response does not continue
// this state (wrong epoch or generation) or when the reconstructed digest
// misses the advertised one — the caller must then resync with a full
// fetch.
func (ps *peerSync) apply(resp *phproto.NeighborhoodSync) (syncResult, bool) {
	if resp.Full {
		ps.epoch, ps.gen = resp.Epoch, resp.ToGen
		ps.hashes = make(map[device.Addr]uint64, len(resp.Entries))
		ps.digest = 0
		for i, en := range resp.Entries {
			h := resp.EntryHash(i)
			ps.hashes[en.Info.Addr] = h
			ps.digest ^= h
		}
		if uint32(len(ps.hashes)) != resp.DigestCount || ps.digest != resp.DigestHash {
			// The advertised digest does not cover what was sent: the
			// responder's own digest state diverged from its table. Merge
			// the entries — they are the freshest view available — but
			// record no sync state for a later delta to be verified
			// against; the next fetch starts over with a FULL request
			// instead of a doomed delta attempt plus in-connection resync.
			*ps = peerSync{legacy: ps.legacy, sinceProbe: ps.sinceProbe, lastQuality: ps.lastQuality, lastMobility: ps.lastMobility}
		}
		return syncResult{full: true, entries: resp.Entries}, true
	}
	// No shadow means no baseline to continue from: a DELTA answering a
	// first-contact (or post-reset) request is invalid even when its
	// (epoch, gen) echo the zeros we sent — reject it rather than trust
	// entries we cannot verify (a well-behaved responder answers FULL).
	if ps.hashes == nil || resp.Epoch != ps.epoch || resp.FromGen != ps.gen {
		return syncResult{}, false
	}
	for i, en := range resp.Entries {
		h := resp.EntryHash(i)
		if old, ok := ps.hashes[en.Info.Addr]; ok {
			ps.digest ^= old
		}
		ps.hashes[en.Info.Addr] = h
		ps.digest ^= h
	}
	for _, a := range resp.Tombstones {
		if old, ok := ps.hashes[a]; ok {
			ps.digest ^= old
			delete(ps.hashes, a)
		}
	}
	if uint32(len(ps.hashes)) != resp.DigestCount || ps.digest != resp.DigestHash {
		return syncResult{}, false
	}
	ps.gen = resp.ToGen
	return syncResult{entries: resp.Entries, tombstones: resp.Tombstones}, true
}

// New returns a Discoverer. It panics if Store, Plugin, or Clock is nil.
func New(cfg Config) *Discoverer {
	if cfg.Store == nil || cfg.Plugin == nil || cfg.Clock == nil {
		panic("discovery: Store, Plugin and Clock are required")
	}
	if cfg.Cycle <= 0 {
		cfg.Cycle = cfg.Plugin.DiscoveryCycle()
	}
	// Phase and jitter derive from the radio address: deterministic per
	// device, decorrelated across devices. Without this, loops started
	// together stay phase-locked and asymmetric radios (Bluetooth) never
	// see each other — each is mid-inquiry whenever the others look.
	if cfg.LegacyOneHop {
		// The pre-thesis baseline predates the sync handshake too.
		cfg.DisableDeltaSync = true
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(cfg.Plugin.Addr().String()))
	r := cfg.Registry
	return &Discoverer{
		cfg:          cfg,
		src:          rng.New(int64(h.Sum64())),
		peers:        make(map[device.Addr]*peerSync),
		roundsCtr:    r.Counter(`peerhood_discovery_rounds_total`),
		fetchesFull:  r.Counter(`peerhood_discovery_fetches_total{kind="full"}`),
		fetchesDelta: r.Counter(`peerhood_discovery_fetches_total{kind="delta"}`),
		fetchErrs:    r.Counter(`peerhood_discovery_fetch_errors_total`),
		syncBytes:    r.Counter(`peerhood_discovery_sync_bytes_total`),
		roundBytes:   r.Gauge(`peerhood_discovery_sync_bytes_round`),
		legacyFalls:  r.Counter(`peerhood_discovery_legacy_fallbacks_total`),
		resyncs:      r.Counter(`peerhood_discovery_resyncs_total`),
	}
}

// Rounds returns how many rounds have completed.
func (d *Discoverer) Rounds() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rounds
}

// RunRound performs one synchronous discovery round (fig 3.12). Tests and
// deterministic experiments call it directly; Start loops it. Rounds are
// serialised, so manual rounds and the background loop compose safely.
func (d *Discoverer) RunRound() RoundReport {
	d.roundMu.Lock()
	defer d.roundMu.Unlock()
	var rep RoundReport
	responses := d.cfg.Plugin.Inquire()
	rep.Responses = len(responses)

	responded := make(map[device.Addr]bool, len(responses))
	for _, r := range responses {
		responded[r.Addr] = true
		if d.cfg.Monitor != nil {
			d.cfg.Monitor.Observe(r.Addr, r.Quality)
		}
		_, known := d.cfg.Store.Lookup(r.Addr)
		if known && !d.cfg.Store.NeedsFetch(r.Addr, d.cfg.ServiceCheckInterval) {
			// Known and fresh: refresh presence and quality only
			// (fig 3.12 "set timestamp = 0").
			d.cfg.Store.UpsertDirect(device.Info{Addr: r.Addr}, r.Quality)
			continue
		}
		rep.Fetches++
		sp := d.cfg.Tracer.Begin("sync.fetch", 0, r.Addr.String())
		info, sr, err := d.fetchPeer(r.Addr, &rep)
		if err != nil {
			d.cfg.Tracer.End(sp, "error")
			rep.FetchErrors++
			d.fetchErrs.Inc()
			if known {
				// Fetch failed but the device did respond: keep it alive.
				d.cfg.Store.UpsertDirect(device.Info{Addr: r.Addr}, r.Quality)
			} else {
				// Never successfully fetched and not stored: drop the sync
				// state too, or non-PeerHood devices that answer inquiries
				// but refuse the daemon port would accumulate forever.
				delete(d.peers, r.Addr)
			}
			continue
		}
		d.cfg.Store.UpsertDirect(info, r.Quality)
		d.cfg.Store.UpdateInfo(info)
		if !known && d.cfg.Bus != nil {
			d.cfg.Bus.Publish(events.Event{
				Type:    events.DeviceAppeared,
				Addr:    r.Addr,
				Quality: r.Quality,
				Detail:  info.Name,
			})
		}
		if d.cfg.LegacyOneHop {
			kept := sr.entries[:0]
			for _, e := range sr.entries {
				if e.Jumps == 0 {
					kept = append(kept, e)
				}
			}
			sr.entries = kept
		}
		mergeStart := time.Now()
		var m storage.MergeResult
		ps := d.peers[r.Addr]
		if sr.full {
			rep.FullFetches++
			d.fetchesFull.Inc()
			d.cfg.Tracer.End(sp, "full")
			m = d.cfg.Store.MergeNeighborhood(r.Addr, r.Quality, sr.entries)
		} else {
			rep.DeltaFetches++
			d.fetchesDelta.Inc()
			d.cfg.Tracer.End(sp, "delta")
			// The delta only carries the peer's changes; our own link to
			// the peer (and its mobility class) may have drifted since the
			// rows were merged. The refresh scan is skipped when neither
			// has: every via-peer route is already priced at
			// (lastQuality, lastMobility).
			if ps == nil || ps.lastQuality != r.Quality || ps.lastMobility != info.Mobility {
				d.cfg.Store.RefreshBridgeLink(r.Addr, r.Quality)
			}
			m = d.cfg.Store.MergeNeighborhoodDelta(r.Addr, r.Quality, sr.entries, sr.tombstones)
		}
		if ps != nil {
			ps.lastQuality = r.Quality
			ps.lastMobility = info.Mobility
		}
		rep.MergeTime += time.Since(mergeStart)
		rep.Merge.Added += m.Added
		rep.Merge.Updated += m.Updated
		rep.Merge.Rejected += m.Rejected
		rep.Merge.Removed += m.Removed
	}

	var lostBridges []device.Addr
	rep.Removed, lostBridges = d.cfg.Store.AgeRound(d.cfg.Plugin.Tech(), responded)
	for _, a := range rep.Removed {
		delete(d.peers, a)
		if d.cfg.Monitor != nil {
			d.cfg.Monitor.MarkLost(a)
		}
		if d.cfg.Bus != nil {
			d.cfg.Bus.Publish(events.Event{Type: events.DeviceLost, Addr: a, Quality: -1})
		}
	}
	for _, a := range lostBridges {
		// The aging sweep just deleted our via-a knowledge while a's own
		// storage may be unchanged — an empty delta from a would never
		// bring it back. Drop the sync state so a's next fetch is FULL.
		delete(d.peers, a)
	}
	for _, a := range d.cfg.Store.TakeEvictedBridges(d.cfg.Plugin.Tech()) {
		// Same hazard via the alternates cap: a device just became
		// unreachable whose via-a route was evicted locally, so a's
		// (unchanged) storage would never re-send it. A full fetch of a
		// restores it.
		delete(d.peers, a)
	}

	d.mu.Lock()
	d.rounds++
	d.mu.Unlock()
	d.roundsCtr.Inc()
	d.syncBytes.Add(uint64(rep.SyncBytes))
	d.roundBytes.Set(rep.SyncBytes)
	return rep
}

// Start launches the discovery loop: one round per cycle until Stop. It is
// a no-op if already running.
func (d *Discoverer) Start() {
	d.mu.Lock()
	if d.stop != nil {
		d.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	d.stop, d.done = stop, done
	d.mu.Unlock()

	go func() {
		defer close(done)
		// Random initial phase so co-started devices don't inquire in
		// lockstep.
		initial := time.Duration(d.src.Float64() * float64(d.cfg.Cycle))
		select {
		case <-d.cfg.Clock.After(initial):
		case <-stop:
			return
		}
		for {
			d.RunRound()
			// ±10% per-round jitter keeps phases drifting apart.
			wait := time.Duration(float64(d.cfg.Cycle) * (0.9 + 0.2*d.src.Float64()))
			select {
			case <-d.cfg.Clock.After(wait):
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the loop and waits for it to exit. Idempotent.
func (d *Discoverer) Stop() {
	d.mu.Lock()
	stop, done := d.stop, d.done
	d.stop, d.done = nil, nil
	d.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// errSyncUnsupported marks a peer that dropped the connection on the sync
// handshake — a daemon predating the versioned exchange.
var errSyncUnsupported = errors.New("discovery: peer does not support neighbourhood sync")

// countingConn counts the bytes crossing a fetch connection in both
// directions, so experiments can report discovery traffic.
type countingConn struct {
	plugin.Conn
	n int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n += int64(n)
	return n, err
}

// fetchPeer performs one information fetch against a direct neighbour,
// versioned when both sides support it. It returns the peer's descriptor
// and the neighbourhood (full table or delta) to merge.
func (d *Discoverer) fetchPeer(to device.Addr, rep *RoundReport) (device.Info, syncResult, error) {
	ps := d.peers[to]
	if ps == nil {
		ps = &peerSync{lastQuality: -1}
		d.peers[to] = ps
	}
	if ps.legacy {
		ps.sinceProbe++
		if ps.sinceProbe >= legacyReprobeInterval {
			// The verdict may have been a transient fault; try the
			// handshake again below.
			ps.legacy = false
			ps.sinceProbe = 0
		}
	}
	if d.cfg.DisableDeltaSync || ps.legacy {
		info, nb, err := d.fetchFull(to, rep)
		return info, syncResult{full: true, entries: nb}, err
	}
	info, sr, err := d.fetchVersioned(to, ps, rep)
	if err == nil || !errors.Is(err, errSyncUnsupported) {
		return info, sr, err
	}
	// The peer hung up on the handshake: treat it as legacy until the next
	// re-probe and repeat this fetch as the full exchange.
	d.legacyFalls.Inc()
	ps.legacy = true
	ps.sinceProbe = 0
	info, nb, err := d.fetchFull(to, rep)
	return info, syncResult{full: true, entries: nb}, err
}

// dialCounted opens one fetch connection wrapped for byte accounting; the
// returned cleanup adds the connection's traffic to the report and closes it.
func (d *Discoverer) dialCounted(to device.Addr, rep *RoundReport) (*countingConn, func(), error) {
	conn, err := d.cfg.Plugin.Dial(to, device.PortDaemon)
	if err != nil {
		return nil, nil, fmt.Errorf("discovery: fetching %v: %w", to, err)
	}
	cc := &countingConn{Conn: conn}
	return cc, func() {
		rep.SyncBytes += cc.n
		_ = conn.Close()
	}, nil
}

// fetchVersioned runs the versioned exchange on one short connection:
// device info (extended, so the peer's sibling interfaces ride along),
// then the (epoch, generation) handshake, then — if the response does not
// continue the remembered state or its digest cannot be reproduced — an
// explicit full resync on the same connection.
func (d *Discoverer) fetchVersioned(to device.Addr, ps *peerSync, rep *RoundReport) (device.Info, syncResult, error) {
	cc, cleanup, err := d.dialCounted(to, rep)
	if err != nil {
		return device.Info{}, syncResult{}, err
	}
	defer cleanup()

	infoKind := phproto.InfoDeviceEx
	var flags uint8 = phproto.SyncFlagSiblings
	if d.cfg.DisableIdentity {
		infoKind, flags = phproto.InfoDevice, 0
	}
	info, err := requestDeviceInfoKind(cc, infoKind)
	if err != nil {
		if infoKind == phproto.InfoDeviceEx {
			// A hang-up on InfoDeviceEx is how a pre-identity daemon
			// presents; re-fetch with the legacy exchange (a transient
			// fault looks the same, but the legacy verdict decays).
			return device.Info{}, syncResult{}, fmt.Errorf("%w: %v", errSyncUnsupported, err)
		}
		return device.Info{}, syncResult{}, err
	}
	if err := phproto.Write(cc, &phproto.NeighborhoodSyncRequest{Epoch: ps.epoch, Gen: ps.gen, Flags: flags}); err != nil {
		return device.Info{}, syncResult{}, fmt.Errorf("discovery: requesting sync: %w", err)
	}
	resp, err := phproto.ReadExpect[*phproto.NeighborhoodSync](cc)
	if err != nil {
		// The device answered the info request but hung up on the sync
		// command: a legacy daemon.
		return device.Info{}, syncResult{}, fmt.Errorf("%w: %v", errSyncUnsupported, err)
	}
	sr, ok := ps.apply(resp)
	if !ok {
		// Wrong continuation or digest mismatch: resync from scratch.
		d.resyncs.Inc()
		if err := phproto.Write(cc, &phproto.NeighborhoodSyncRequest{Flags: flags}); err != nil {
			return device.Info{}, syncResult{}, fmt.Errorf("discovery: requesting resync: %w", err)
		}
		full, err := phproto.ReadExpect[*phproto.NeighborhoodSync](cc)
		if err != nil {
			return device.Info{}, syncResult{}, fmt.Errorf("discovery: reading resync: %w", err)
		}
		if !full.Full {
			return device.Info{}, syncResult{}, fmt.Errorf("discovery: resync of %v answered with a delta", to)
		}
		sr, _ = ps.apply(full)
	}
	return info, sr, nil
}

// fetchFull performs the legacy full exchange, counting its bytes.
func (d *Discoverer) fetchFull(to device.Addr, rep *RoundReport) (device.Info, []phproto.NeighborEntry, error) {
	cc, cleanup, err := d.dialCounted(to, rep)
	if err != nil {
		return device.Info{}, nil, err
	}
	defer cleanup()
	return fetchFullConn(cc)
}

// Fetch performs the legacy information exchange of fig 3.7 against a
// device's daemon port: device information (including services) and the
// full neighbourhood table, over one short connection. An ErrRefused dial
// means the device carries no PeerHood daemon — the SDP "PeerHood tag"
// check of §2.3 maps to this.
func Fetch(p plugin.Plugin, to device.Addr) (device.Info, []phproto.NeighborEntry, error) {
	conn, err := p.Dial(to, device.PortDaemon)
	if err != nil {
		return device.Info{}, nil, fmt.Errorf("discovery: fetching %v: %w", to, err)
	}
	defer conn.Close()
	return fetchFullConn(conn)
}

func fetchFullConn(conn plugin.Conn) (device.Info, []phproto.NeighborEntry, error) {
	info, err := requestDeviceInfo(conn)
	if err != nil {
		return device.Info{}, nil, err
	}
	if err := phproto.Write(conn, &phproto.InfoRequest{Kind: phproto.InfoNeighborhood}); err != nil {
		return device.Info{}, nil, fmt.Errorf("discovery: requesting neighbourhood: %w", err)
	}
	nb, err := phproto.ReadExpect[*phproto.Neighborhood](conn)
	if err != nil {
		return device.Info{}, nil, fmt.Errorf("discovery: reading neighbourhood: %w", err)
	}
	return info, nb.Entries, nil
}

func requestDeviceInfo(conn plugin.Conn) (device.Info, error) {
	return requestDeviceInfoKind(conn, phproto.InfoDevice)
}

func requestDeviceInfoKind(conn plugin.Conn, kind phproto.InfoKind) (device.Info, error) {
	if err := phproto.Write(conn, &phproto.InfoRequest{Kind: kind}); err != nil {
		return device.Info{}, fmt.Errorf("discovery: requesting device info: %w", err)
	}
	di, err := phproto.ReadExpect[*phproto.DeviceInfo](conn)
	if err != nil {
		return device.Info{}, fmt.Errorf("discovery: reading device info: %w", err)
	}
	return di.Info, nil
}
