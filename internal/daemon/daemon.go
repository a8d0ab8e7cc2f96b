// Package daemon implements the PeerHood daemon (§2.2.1): the long-lived
// process owning the network plugins, the DeviceStorage, the per-plugin
// discovery loops, and the information responder that answers other
// devices' fetches on the daemon port. Applications never talk to the
// daemon directly; the library (internal/library) does.
package daemon

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/discovery"
	"peerhood/internal/events"
	"peerhood/internal/linkmon"
	"peerhood/internal/phproto"
	"peerhood/internal/plugin"
	"peerhood/internal/storage"
	"peerhood/internal/telemetry"
)

// Config parametrises a Daemon. Name is required.
type Config struct {
	// Name is the device's human-readable name, shown in device lists.
	Name string
	// Mobility is the device's own class, advertised during discovery and
	// used by peers for bridge selection (§3.4.3).
	Mobility device.Mobility
	// Clock drives all timing; defaults to the real clock.
	Clock clock.Clock
	// Checksum mirrors the thesis' daemon PID field (transmitted, unused).
	Checksum uint32

	// ServiceCheckInterval is the re-fetch staleness bound (fig 3.12);
	// zero fetches every round.
	ServiceCheckInterval time.Duration
	// LegacyOneHop runs discovery in the pre-thesis one-level mode
	// (baseline for experiment F3.3).
	LegacyOneHop bool
	// DisableDeltaSync makes this daemon's discoverers use the legacy
	// full-table neighbourhood exchange instead of the versioned delta
	// handshake (baseline for experiment S2). The responder still answers
	// sync requests from peers that ask.
	DisableDeltaSync bool
	// DisableIdentity makes this daemon behave like a pre-identity peer on
	// both sides of the wire: it advertises no sibling interfaces, closes
	// the connection on InfoDeviceEx (exactly as a legacy daemon presents),
	// strips sibling advertisements from everything it serves, and its
	// discoverers fetch without the identity capability bit. The interop
	// baseline for vertical handover.
	DisableIdentity bool
	// DisableIntrospection makes this daemon present as a pre-telemetry
	// peer: it closes the connection on STATS_REQUEST exactly as a legacy
	// daemon would on the unknown command byte. The interop baseline for
	// `phctl stats`' fallback path.
	DisableIntrospection bool
	// QualityThreshold, MaxJumps, MaxMissedLoops configure the storage;
	// zero values take the storage defaults (230, 8, 2).
	QualityThreshold int
	MaxJumps         int
	MaxMissedLoops   int
	// QualityFirst swaps route-selection priority from mobility to link
	// quality (ablation A1).
	QualityFirst bool

	// LoadPenalty, if set, returns a quality penalty subtracted from every
	// advertised route when this daemon answers neighbourhood fetches. The
	// bridge service wires its connection load in here, implementing the
	// §4 bottleneck-avoidance suggestion.
	LoadPenalty func() int

	// LinkHorizon is the link monitor's degradation-prediction horizon:
	// how far ahead a predicted threshold crossing classifies a link as
	// degrading. Zero takes the linkmon default (10 s).
	LinkHorizon time.Duration
	// LinkWindow is the link monitor's slope window in samples; larger
	// windows average more noise out of the trend at the cost of slower
	// reaction. Zero takes the linkmon default (8).
	LinkWindow int
}

// ErrStopped reports operations on a stopped daemon.
var ErrStopped = errors.New("daemon: stopped")

// Daemon is one device's PeerHood daemon.
type Daemon struct {
	cfg     Config
	clk     clock.Clock
	store   *storage.Storage
	bus     *events.Bus
	monitor *linkmon.Monitor
	reg     *telemetry.Registry
	tracer  *telemetry.Tracer

	mu          sync.Mutex
	plugins     []plugin.Plugin
	discoverers []*discovery.Discoverer
	listeners   []plugin.Listener
	services    map[string]device.ServiceInfo
	nextPort    uint16
	started     bool
	stopped     bool
	wg          sync.WaitGroup
	conns       map[io.Closer]struct{}
}

// New returns a Daemon with no plugins attached.
func New(cfg Config) (*Daemon, error) {
	if cfg.Name == "" {
		return nil, errors.New("daemon: Name is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	bus := events.NewBus(cfg.Clock)
	// The telemetry plane is per-daemon and always on: handles are plain
	// atomics, so an unscraped registry costs nothing measurable. The span
	// ID space is seeded from the daemon name, which manual-clock
	// experiments keep fixed — same-seed runs assign identical IDs.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(cfg.Name, cfg.Clock, telemetry.DefaultTraceCapacity)
	bus.Instrument(reg)
	d := &Daemon{
		cfg: cfg,
		clk: cfg.Clock,
		store: storage.New(storage.Config{
			Clock:            cfg.Clock,
			QualityThreshold: cfg.QualityThreshold,
			MaxJumps:         cfg.MaxJumps,
			MaxMissedLoops:   cfg.MaxMissedLoops,
			QualityFirst:     cfg.QualityFirst,
			Registry:         reg,
		}),
		bus: bus,
		monitor: linkmon.New(linkmon.Config{
			Clock:     cfg.Clock,
			Bus:       bus,
			Threshold: cfg.QualityThreshold,
			Horizon:   cfg.LinkHorizon,
			Window:    cfg.LinkWindow,
			Registry:  reg,
			Tracer:    tracer,
		}),
		reg:      reg,
		tracer:   tracer,
		services: make(map[string]device.ServiceInfo),
		nextPort: device.PortServiceBase,
		conns:    make(map[io.Closer]struct{}),
	}
	return d, nil
}

// AddPlugin attaches a network plugin. Must be called before Start.
func (d *Daemon) AddPlugin(p plugin.Plugin) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		return errors.New("daemon: cannot add plugins after Start")
	}
	for _, existing := range d.plugins {
		if existing.Tech() == p.Tech() {
			return fmt.Errorf("daemon: duplicate %v plugin", p.Tech())
		}
	}
	d.plugins = append(d.plugins, p)
	d.store.AddSelfAddr(p.Addr())
	return nil
}

// Name returns the device name.
func (d *Daemon) Name() string { return d.cfg.Name }

// Config returns a copy of the daemon's configuration. Crash/restart
// harnesses (the fault plane's churn events) rebuild a replacement daemon
// from it: a new Daemon gets a fresh storage epoch, so peers that had
// delta-synced with the old instance detect the restart and fall back to a
// full neighbourhood fetch.
func (d *Daemon) Config() Config { return d.cfg }

// Clock returns the daemon's clock.
func (d *Daemon) Clock() clock.Clock { return d.clk }

// Storage returns the daemon's device table.
func (d *Daemon) Storage() *storage.Storage { return d.store }

// Bus returns the daemon's neighbourhood event bus. Discovery, the link
// monitor, and handover threads publish on it; applications subscribe
// in-process (library.Events) or over the wire (EVENT_SUBSCRIBE).
func (d *Daemon) Bus() *events.Bus { return d.bus }

// LinkMonitor returns the daemon's link-quality monitor. Discovery feeds
// it every inquiry response; handover threads feed their connection
// samples and consume its degradation predictions.
func (d *Daemon) LinkMonitor() *linkmon.Monitor { return d.monitor }

// Registry returns the daemon's telemetry registry: every layer running
// under this daemon (storage, discovery, bus, handover threads) books its
// counters here, and the STATS wire command and the /metrics endpoint
// read from it.
func (d *Daemon) Registry() *telemetry.Registry { return d.reg }

// Tracer returns the daemon's span tracer (handover/sync lifecycles).
func (d *Daemon) Tracer() *telemetry.Tracer { return d.tracer }

// Plugins returns the attached plugins.
func (d *Daemon) Plugins() []plugin.Plugin {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]plugin.Plugin(nil), d.plugins...)
}

// PluginFor returns the plugin of the given technology.
func (d *Daemon) PluginFor(t device.Tech) (plugin.Plugin, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.plugins {
		if p.Tech() == t {
			return p, true
		}
	}
	return nil, false
}

// InfoFor returns the descriptor this daemon advertises on the given
// technology: identity, mobility, registered services, and — unless the
// identity plane is disabled — the device's other radio interfaces as
// sibling addresses, from which peers derive the cross-interface device
// identity.
func (d *Daemon) InfoFor(t device.Tech) (device.Info, bool) {
	p, ok := d.PluginFor(t)
	if !ok {
		return device.Info{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	info := device.Info{
		Name:     d.cfg.Name,
		Addr:     p.Addr(),
		Checksum: d.cfg.Checksum,
		Mobility: d.cfg.Mobility,
	}
	for _, s := range d.services {
		info.Services = append(info.Services, s)
	}
	if !d.cfg.DisableIdentity {
		for _, q := range d.plugins {
			if q.Tech() != t {
				info.Siblings = append(info.Siblings, q.Addr())
			}
		}
		sort.Slice(info.Siblings, func(i, j int) bool {
			return info.Siblings[i].Less(info.Siblings[j])
		})
	}
	return info, true
}

// RegisterService registers a named service and allocates its logical
// port. Registered services become discoverable by every device in the
// PeerHood network (§2.3).
func (d *Daemon) RegisterService(name, attr string) (device.ServiceInfo, error) {
	if name == "" {
		return device.ServiceInfo{}, errors.New("daemon: empty service name")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.services[name]; dup {
		return device.ServiceInfo{}, fmt.Errorf("daemon: service %q already registered", name)
	}
	svc := device.ServiceInfo{Name: name, Attr: attr, Port: d.nextPort}
	d.nextPort++
	d.services[name] = svc
	return svc, nil
}

// UnregisterService removes a registered service.
func (d *Daemon) UnregisterService(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.services, name)
}

// Services returns the locally registered services.
func (d *Daemon) Services() []device.ServiceInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]device.ServiceInfo, 0, len(d.services))
	for _, s := range d.services {
		out = append(out, s)
	}
	return out
}

// LookupLocalService returns the local service with the given port.
func (d *Daemon) LookupLocalService(port uint16) (device.ServiceInfo, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.services {
		if s.Port == port {
			return s, true
		}
	}
	return device.ServiceInfo{}, false
}

// Start binds the daemon information port on every plugin and begins
// serving fetches. If autoDiscover is true it also starts the per-plugin
// discovery loops; otherwise the embedder drives RunDiscoveryRound.
func (d *Daemon) Start(autoDiscover bool) error {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return errors.New("daemon: already started")
	}
	if d.stopped {
		d.mu.Unlock()
		return ErrStopped
	}
	if len(d.plugins) == 0 {
		d.mu.Unlock()
		return errors.New("daemon: no plugins attached")
	}
	d.started = true
	plugins := append([]plugin.Plugin(nil), d.plugins...)
	d.mu.Unlock()

	for _, p := range plugins {
		l, err := p.Listen(device.PortDaemon)
		if err != nil {
			d.Stop()
			return fmt.Errorf("daemon: binding info port on %v: %w", p.Tech(), err)
		}
		d.mu.Lock()
		d.listeners = append(d.listeners, l)
		d.mu.Unlock()
		d.wg.Add(1)
		go d.acceptLoop(p, l)

		disc := discovery.New(discovery.Config{
			Store:                d.store,
			Plugin:               p,
			Clock:                d.clk,
			ServiceCheckInterval: d.cfg.ServiceCheckInterval,
			LegacyOneHop:         d.cfg.LegacyOneHop,
			DisableDeltaSync:     d.cfg.DisableDeltaSync,
			DisableIdentity:      d.cfg.DisableIdentity,
			Bus:                  d.bus,
			Monitor:              d.monitor,
			Registry:             d.reg,
			Tracer:               d.tracer,
		})
		d.mu.Lock()
		d.discoverers = append(d.discoverers, disc)
		d.mu.Unlock()
		if autoDiscover {
			disc.Start()
		}
	}
	return nil
}

// RunDiscoveryRound performs one synchronous discovery round on every
// plugin and returns the per-plugin reports. Deterministic tests and the
// experiment harness use it instead of the background loops.
func (d *Daemon) RunDiscoveryRound() []discovery.RoundReport {
	d.mu.Lock()
	discs := append([]*discovery.Discoverer(nil), d.discoverers...)
	d.mu.Unlock()
	out := make([]discovery.RoundReport, 0, len(discs))
	for _, disc := range discs {
		out = append(out, disc.RunRound())
	}
	return out
}

// Stop halts discovery, closes listeners and in-flight responder
// connections, and waits for every daemon goroutine to exit. Idempotent.
func (d *Daemon) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	discs := d.discoverers
	listeners := d.listeners
	conns := make([]io.Closer, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.mu.Unlock()

	for _, disc := range discs {
		disc.Stop()
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	d.wg.Wait()
	// Closing the bus after the goroutines are gone means no publisher can
	// race the close; open subscriptions see their channels close.
	d.bus.Close()
}

// acceptLoop serves information fetches arriving on one plugin.
func (d *Daemon) acceptLoop(p plugin.Plugin, l plugin.Listener) {
	defer d.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		d.mu.Lock()
		if d.stopped {
			d.mu.Unlock()
			_ = conn.Close()
			return
		}
		d.conns[conn] = struct{}{}
		d.mu.Unlock()

		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serveInfo(p, conn)
			d.mu.Lock()
			delete(d.conns, conn)
			d.mu.Unlock()
		}()
	}
}

// serveInfo answers a sequence of information requests on one short
// connection (fig 3.7, unified per §3.4.1's suggestion): plain
// InfoRequests, and the versioned neighbourhood-sync handshake.
func (d *Daemon) serveInfo(p plugin.Plugin, conn plugin.Conn) {
	defer conn.Close()
	for {
		msg, err := phproto.Read(conn)
		if err != nil {
			return
		}
		var resp phproto.Message
		switch req := msg.(type) {
		case *phproto.InfoRequest:
			switch req.Kind {
			case phproto.InfoDevice:
				// The plain request predates the identity plane; strip the
				// sibling advertisement so the answer stays legacy-decodable.
				info, _ := d.InfoFor(p.Tech())
				info.Siblings = nil
				resp = &phproto.DeviceInfo{Info: info}
			case phproto.InfoDeviceEx:
				if d.cfg.DisableIdentity {
					// Present exactly as a legacy daemon: hang up.
					return
				}
				info, _ := d.InfoFor(p.Tech())
				resp = &phproto.DeviceInfo{Info: info}
			case phproto.InfoServices:
				resp = &phproto.ServiceList{Services: d.Services()}
			case phproto.InfoNeighborhood:
				resp = &phproto.Neighborhood{Entries: d.advertisedEntries()}
			case phproto.InfoDigest:
				dg := d.store.Digest()
				resp = &phproto.DigestInfo{Epoch: dg.Epoch, Gen: dg.Gen, Entries: uint32(dg.Entries), Hash: dg.Hash}
			default:
				return
			}
		case *phproto.NeighborhoodSyncRequest:
			resp = d.neighborhoodSync(req)
		case *phproto.StatsRequest:
			if d.cfg.DisableIntrospection {
				// Present exactly as a legacy daemon: hang up.
				return
			}
			resp = d.statsSnapshot(req.Prefix)
		default:
			return
		}
		if err := phproto.Write(conn, resp); err != nil {
			return
		}
	}
}

// statsSnapshot flattens the telemetry registry into a STATS answer,
// optionally restricted to series names starting with prefix. Snapshot
// returns name-sorted points, so over-cap truncation keeps a
// deterministic prefix.
func (d *Daemon) statsSnapshot(prefix string) *phproto.Stats {
	pts := d.reg.Snapshot()
	out := &phproto.Stats{UnixNanos: d.clk.Now().UnixNano()}
	for _, p := range pts {
		if prefix != "" && !strings.HasPrefix(p.Name, prefix) {
			continue
		}
		if len(out.Entries) == phproto.MaxStatEntries {
			break
		}
		out.Entries = append(out.Entries, phproto.StatEntry{Name: p.Name, Value: math.Float64bits(p.Value)})
	}
	return out
}

// neighborhoodSync answers a versioned neighbourhood fetch. With an active
// load penalty the advertised rows are skewed away from the stored table,
// so no stored history can describe their changes: the responder serves a
// FULL table with the digest computed over exactly what it transmits, and
// stamps it epoch 0 — an unsyncable snapshot. Were it stamped with the real
// (epoch, gen), the fetcher would record penalised fingerprints against a
// genuine generation and every post-penalty delta would digest-mismatch
// into a wasted resync. With epoch 0 the fetcher keeps taking FULL tables
// while the penalty lasts and re-establishes delta sync on the first
// unpenalised fetch.
func (d *Daemon) neighborhoodSync(req *phproto.NeighborhoodSyncRequest) *phproto.NeighborhoodSync {
	wantSiblings := req.Flags&phproto.SyncFlagSiblings != 0 && !d.cfg.DisableIdentity
	if d.cfg.LoadPenalty != nil && d.cfg.LoadPenalty() > 0 {
		entries := d.advertisedEntries()
		if !wantSiblings {
			entries = phproto.StripSiblings(entries)
		}
		return phproto.FullSync(0, 0, entries)
	}
	// The storage decides strip-vs-sync for non-capable fetchers under one
	// lock: a sibling-free table keeps the normal versioned answer
	// (including deltas), a sibling-carrying one is served stripped as an
	// unsyncable epoch-0 snapshot.
	return d.store.SyncResponse(req.Epoch, req.Gen, wantSiblings)
}

// advertisedEntries renders the storage for transmission, applying the
// load-based quality penalty if configured (§4's bottleneck avoidance:
// a busy bridge advertises routes as lower-quality, steering new
// connections elsewhere).
func (d *Daemon) advertisedEntries() []phproto.NeighborEntry {
	entries := d.store.WireEntries()
	if len(entries) > phproto.MaxEntries {
		// The wire's entry count is a u16 capped at MaxEntries; advertise
		// the deterministic prefix rather than an undecodable frame.
		entries = entries[:phproto.MaxEntries]
	}
	if d.cfg.LoadPenalty == nil {
		return entries
	}
	penalty := d.cfg.LoadPenalty()
	if penalty <= 0 {
		return entries
	}
	for i := range entries {
		q := int(entries[i].QualitySum) - penalty
		if q < 0 {
			q = 0
		}
		entries[i].QualitySum = uint32(q)
		m := int(entries[i].QualityMin) - penalty
		if m < 0 {
			m = 0
		}
		entries[i].QualityMin = uint8(m)
	}
	return entries
}
