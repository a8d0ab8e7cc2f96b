// Package storage implements the PeerHood DeviceStorage as extended by the
// thesis (ch. 3): a routing table in which every known device carries not
// just its descriptor but the bridge (next hop), jump count, link-quality
// aggregates, and mobility metadata needed to reach it through the ad-hoc
// network. It implements the AnalyzeNeighbourhoodDevices merge (fig 3.13),
// the link-quality addition and threshold rules (figs 3.8–3.9), and the
// timestamp aging of the discovery loop (fig 3.12).
package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/phproto"
	"peerhood/internal/telemetry"
)

// Default configuration values.
const (
	// DefaultQualityThreshold is the minimum per-hop link quality a route
	// should clear (230 throughout the thesis).
	DefaultQualityThreshold = 230
	// DefaultMaxMissedLoops is how many consecutive discovery loops a
	// direct neighbour may miss before its direct route is erased
	// (fig 3.12 "make older" / erase).
	DefaultMaxMissedLoops = 2
	// DefaultMaxJumps bounds stored route length; §3.4.2 argues long
	// routes are useless for mobile devices because the notification delay
	// grows linearly with jumps.
	DefaultMaxJumps = 8
	// DefaultMaxAlternates bounds the remembered candidate routes per
	// device (one per distinct first hop).
	DefaultMaxAlternates = 8
	// DefaultJournalLimit bounds how many generations back delta
	// neighbourhood sync reaches. A fetcher further behind is served a FULL
	// table instead of a delta.
	DefaultJournalLimit = 4096
)

// Config parametrises a Storage. Zero fields take defaults.
type Config struct {
	Clock            clock.Clock
	QualityThreshold int
	MaxMissedLoops   int
	MaxJumps         int
	MaxAlternates    int
	// JournalLimit bounds the generations a delta may span. Past it the
	// storage forgets the older half of its window (and the tombstones in
	// it); peers behind that floor fall back to a full fetch.
	JournalLimit int

	// QualityFirst swaps the fig 3.13 comparison order to prefer link
	// quality over bridge mobility. The thesis argues static bridges make
	// the network backbone (§3.4.3); this flag exists for the A1 ablation
	// that quantifies that argument.
	QualityFirst bool

	// Registry receives the storage's telemetry (merge counters, sync-serve
	// counters, table-size gauge); nil disables. The handles are resolved
	// once here, so the merge hot paths keep their 0 allocs/op budgets.
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.Real()
	}
	if c.QualityThreshold == 0 {
		c.QualityThreshold = DefaultQualityThreshold
	}
	if c.MaxMissedLoops == 0 {
		c.MaxMissedLoops = DefaultMaxMissedLoops
	}
	if c.MaxJumps == 0 {
		c.MaxJumps = DefaultMaxJumps
	}
	if c.MaxAlternates == 0 {
		c.MaxAlternates = DefaultMaxAlternates
	}
	if c.JournalLimit == 0 {
		c.JournalLimit = DefaultJournalLimit
	}
	return c
}

// Route is one way to reach a device: either direct (Jumps 0, zero Bridge)
// or through a bridge node.
type Route struct {
	// Jumps counts intermediate nodes; 0 means direct coverage (§3.3).
	Jumps int
	// Bridge is the first-hop node to dial for this route; zero if direct.
	Bridge device.Addr
	// QualitySum is the thesis' §3.4.1 addition of per-hop link qualities.
	QualitySum int
	// QualityMin is the weakest hop, checked against the 230 threshold.
	QualityMin int
	// BridgeMobility is the mobility class of the route's first hop — the
	// thesis keeps "only the nearest device's mobility" as the route's
	// stability measure (§3.4.3). For direct routes it is the target's own
	// class.
	BridgeMobility device.Mobility
	// MobilitySum aggregates mobility over the route like link quality.
	// The thesis considered and rejected this aggregate (§3.4.3); it is
	// kept for the ablation experiments.
	MobilitySum int
	// RemoteQualitySum and RemoteQualityMin are the aggregates the bridge
	// reported for its part of the route; QualitySum/QualityMin add the
	// local first hop on top. Kept so delta sync can refresh the local
	// hop's drift without a re-report (RefreshBridgeLink) — the full
	// exchange re-derives them on every fetch instead. Zero for direct
	// routes.
	RemoteQualitySum int
	RemoteQualityMin int
}

// Direct reports whether the route is a direct link.
func (r Route) Direct() bool { return r.Jumps == 0 }

// isDirect is Direct without copying the route.
func (r *Route) isDirect() bool { return r.Jumps == 0 }

// String implements fmt.Stringer.
func (r Route) String() string {
	if r.Direct() {
		return fmt.Sprintf("direct(q=%d)", r.QualitySum)
	}
	return fmt.Sprintf("via %s (jumps=%d q=%d min=%d mob=%v)",
		r.Bridge, r.Jumps, r.QualitySum, r.QualityMin, r.BridgeMobility)
}

// Entry is everything known about one remote device: its descriptor and the
// candidate routes to it, plus the aging state of its direct route.
type Entry struct {
	Info device.Info
	// Routes holds candidate routes, at most one per distinct first hop,
	// best first according to the fig 3.13 comparison.
	Routes []Route
	// MissedLoops counts consecutive discovery loops without a response
	// from the device (direct route aging, fig 3.12).
	MissedLoops int
	// LastSeen is when the device last responded to an inquiry or was
	// reported by a bridge.
	LastSeen time.Time
	// LastFetched is when the device's full information (services,
	// neighbourhood) was last fetched; the service-check interval compares
	// against it (fig 3.12).
	LastFetched time.Time
	// Gen is the storage generation that last changed this entry's
	// transmitted form (descriptor or best route). Refreshes that peers
	// cannot observe — LastSeen, an identical re-reported route — do not
	// advance it.
	Gen uint64
	// evictedVia lists bridges whose route to this device the MaxAlternates
	// cap dropped and that have not since re-reported or tombstoned it —
	// bridges that may still reach the device after every remembered route
	// dies. Folded into the sync-state reset set when the entry is removed.
	evictedVia []device.Addr
	// id caches Info.Identity() so the identity index stays consistent with
	// the descriptor across partial updates.
	id device.ID
	// row caches the transmitted form while the entry is wire-visible. It
	// is boxed so that the clones every public read makes stay small.
	row *wireRow
}

// wireRow is an entry's transmitted row, rendered once per visible change
// and reused for the table digest and every DELTA and FULL answer.
type wireRow struct {
	// en is the rendered form buf encodes. Its Info shares the entry's
	// descriptor slices, which the storage replaces but never edits in
	// place.
	en phproto.NeighborEntry
	// buf is en's wire encoding; empty while no row is current.
	buf []byte
	// hash is buf's FNV-64a (NeighborEntry.Hash of en).
	hash uint64
}

// renderRow brings the entry's cached row up to date with its best route
// and descriptor and reports whether the row changed. The entry must have
// a route. An update that changes none of the transmitted fields — the
// common re-report — costs a field comparison, not an encode and a hash.
func (e *Entry) renderRow() bool {
	en, _ := wireEntryOf(e)
	if e.row == nil {
		e.row = new(wireRow)
	} else if len(e.row.buf) > 0 && sameRow(&e.row.en, &en) {
		return false
	}
	e.row.en = en
	e.row.buf = phproto.AppendEntry(e.row.buf[:0], en)
	e.row.hash = phproto.HashRow(e.row.buf)
	return true
}

// sameRow reports whether two rendered rows carry equal transmitted fields.
func sameRow(a, b *phproto.NeighborEntry) bool {
	return a.Jumps == b.Jumps && a.Bridge == b.Bridge &&
		a.QualitySum == b.QualitySum && a.QualityMin == b.QualityMin &&
		a.Info.Name == b.Info.Name && a.Info.Addr == b.Info.Addr &&
		a.Info.Checksum == b.Info.Checksum && a.Info.Mobility == b.Info.Mobility &&
		slices.Equal(a.Info.Services, b.Info.Services) &&
		slices.Equal(a.Info.Siblings, b.Info.Siblings)
}

// Identity returns the entry's cross-interface device identity.
func (e *Entry) Identity() device.ID { return e.id }

// noteEvictedVia remembers a capacity-evicted route's bridge.
func (e *Entry) noteEvictedVia(bridge device.Addr) {
	for _, a := range e.evictedVia {
		if a == bridge {
			return
		}
	}
	e.evictedVia = append(e.evictedVia, bridge)
}

// forgetEvictedVia drops a bridge whose knowledge of this device is
// current again (it re-reported the device) or gone (it tombstoned it).
func (e *Entry) forgetEvictedVia(bridge device.Addr) {
	for i, a := range e.evictedVia {
		if a == bridge {
			e.evictedVia = append(e.evictedVia[:i], e.evictedVia[i+1:]...)
			return
		}
	}
}

// Best returns the entry's preferred route.
func (e *Entry) Best() (Route, bool) {
	if len(e.Routes) == 0 {
		return Route{}, false
	}
	return e.Routes[0], true
}

// HasDirect reports whether a direct route exists.
func (e *Entry) HasDirect() bool {
	for i := range e.Routes {
		if e.Routes[i].isDirect() {
			return true
		}
	}
	return false
}

// dropRoutes removes the routes drop selects, keeping the others in order,
// and returns how many it removed. Routes are large, so kept ones move
// only when a removal precedes them.
func (e *Entry) dropRoutes(drop func(r *Route) bool) int {
	kept := 0
	for i := range e.Routes {
		if drop(&e.Routes[i]) {
			continue
		}
		if kept != i {
			e.Routes[kept] = e.Routes[i]
		}
		kept++
	}
	n := len(e.Routes) - kept
	e.Routes = e.Routes[:kept]
	return n
}

func (e *Entry) clone() Entry {
	out := *e
	out.Info = e.Info.Clone()
	out.Routes = append([]Route(nil), e.Routes...)
	out.evictedVia = append([]device.Addr(nil), e.evictedVia...)
	out.row = nil
	return out
}

// Storage is the device table of one PeerHood daemon. It is safe for
// concurrent use by the discovery loops of several plugins and the library.
//
// The storage is versioned for delta neighbourhood sync: a monotonic
// generation counter advances on every mutation that changes what peers
// would receive over the wire, and a running digest fingerprints the whole
// transmitted table. Each entry's row is encoded once per such change and
// cached with its hash; every entry is stamped with the generation of its
// last change, and a tombstone log remembers when devices left the table.
// Peers fetch FULL once and then request only the changes since the
// generation they last merged: the entries stamped after it plus the
// tombstones logged after it, served as the cached bytes (SyncResponse).
type Storage struct {
	cfg   Config
	epoch uint64

	mu      sync.RWMutex
	self    map[device.Addr]bool
	entries map[device.Addr]*Entry
	// ids groups stored interfaces by cross-interface device identity
	// (device.ID): the identity plane over the per-interface rows. Rows stay
	// the wire unit; the index only adds the "same peer, other radio" view
	// that Siblings and AlternateRoutesByIdentity serve.
	ids map[device.ID]map[device.Addr]bool

	// gen is the generation of the last wire-visible mutation.
	gen uint64
	// published lists the wire-visible entries in address order, each with
	// the hash of the row peers last saw; digestHash is the XOR of those
	// hashes (phproto.DigestOf convention).
	published  []publishedRow
	digestHash uint64
	// tombs maps each device that left the transmitted table to the
	// generation it left at; a device that reappears leaves the log.
	// floor is the oldest generation deltas still reach: they are served
	// for any since-generation >= it. Tombstones at or below it are
	// forgotten.
	tombs map[device.Addr]uint64
	floor uint64
	// evicted collects bridges whose capacity-evicted route could have
	// kept a just-removed device reachable. The loss is local — the
	// bridge's own storage is unchanged, so its deltas would never
	// re-offer the row the way every full exchange does — and the
	// discoverer must reset that bridge's sync state (TakeEvictedBridges),
	// exactly as it does for AgeRound's lostBridges. Recorded only at
	// entry removal: while other routes survive, the evicted one is dead
	// weight and resetting on every eviction would degrade a dense
	// neighbourhood to permanent full sync.
	evicted map[device.Addr]bool

	// scratch holds reusable buffers for the merge/sync hot paths, so a
	// steady-state discovery round performs no per-call map or slice
	// allocations. All of it is guarded by mu — which is why the sync
	// responder (SyncResponse) takes the write lock.
	scratch struct {
		reported map[device.Addr]bool // MergeNeighborhood's reported-set
		rows     []*Entry             // changedSinceLocked's selection
	}
	// free recycles Entry boxes removed from the table, Routes, evictedVia
	// and row backing arrays included, so churn — devices flapping in
	// and out of coverage — does not box a fresh Entry per reappearance.
	// Safe because no *Entry ever escapes the lock: every public API
	// clones before returning.
	free []*Entry

	// Telemetry handles, resolved at construction (nil-safe when no
	// registry is configured; see telemetry package).
	mergesFull      *telemetry.Counter
	mergesDelta     *telemetry.Counter
	mergeRows       *telemetry.Counter
	mergeRejects    *telemetry.Counter
	syncServedFull  *telemetry.Counter
	syncServedDelta *telemetry.Counter
	entriesGauge    *telemetry.Gauge
}

// maxFreeEntries bounds the Entry free list; beyond it removed entries are
// left to the garbage collector (a one-off mass removal should not pin its
// peak forever).
const maxFreeEntries = 512

// epochSeq disambiguates storages created in the same wall-clock nanosecond
// (simulated worlds create hundreds per second).
var epochSeq atomic.Uint64

func newEpoch() uint64 {
	e := uint64(time.Now().UnixNano())*0x9E3779B97F4A7C15 + epochSeq.Add(1)
	if e == 0 {
		e = 1
	}
	return e
}

// New returns an empty Storage with a fresh epoch.
func New(cfg Config) *Storage {
	cfg = cfg.withDefaults()
	return &Storage{
		cfg:     cfg,
		epoch:   newEpoch(),
		self:    make(map[device.Addr]bool),
		entries: make(map[device.Addr]*Entry),
		ids:     make(map[device.ID]map[device.Addr]bool),
		tombs:   make(map[device.Addr]uint64),
		evicted: make(map[device.Addr]bool),

		mergesFull:      cfg.Registry.Counter(`peerhood_storage_merges_total{kind="full"}`),
		mergesDelta:     cfg.Registry.Counter(`peerhood_storage_merges_total{kind="delta"}`),
		mergeRows:       cfg.Registry.Counter("peerhood_storage_merge_rows_total"),
		mergeRejects:    cfg.Registry.Counter("peerhood_storage_merge_rejected_total"),
		syncServedFull:  cfg.Registry.Counter(`peerhood_storage_sync_served_total{kind="full"}`),
		syncServedDelta: cfg.Registry.Counter(`peerhood_storage_sync_served_total{kind="delta"}`),
		entriesGauge:    cfg.Registry.Gauge("peerhood_storage_entries"),
	}
}

// AddSelfAddr registers one of the local device's own radio addresses, so
// that echoes of ourselves in received neighbourhoods are filtered (the
// "own device comparison filter" of fig 3.13).
func (s *Storage) AddSelfAddr(a device.Addr) {
	s.mu.Lock()
	s.self[a] = true
	if e, ok := s.entries[a]; ok {
		s.dropIdentityLocked(a, e.id)
	}
	delete(s.entries, a)
	s.touchLocked(a)
	s.mu.Unlock()
}

// reindexIdentityLocked re-files the entry under the identity its current
// descriptor derives. Every mutation that may change Info funnels through
// it, so the identity index (and the entry's cached id) never drifts from
// the descriptors — including across delta syncs and the full resyncs that
// follow a peer's epoch reset, which simply replay descriptors through the
// same path.
func (s *Storage) reindexIdentityLocked(addr device.Addr, e *Entry) {
	id := e.Info.Identity()
	if e.id == id {
		return
	}
	s.dropIdentityLocked(addr, e.id)
	e.id = id
	m := s.ids[id]
	if m == nil {
		m = make(map[device.Addr]bool)
		s.ids[id] = m
	}
	m[addr] = true
}

// dropIdentityLocked removes addr from the identity group id.
func (s *Storage) dropIdentityLocked(addr device.Addr, id device.ID) {
	if id == "" {
		return
	}
	if m := s.ids[id]; m != nil {
		delete(m, addr)
		if len(m) == 0 {
			delete(s.ids, id)
		}
	}
}

// relinkSiblingsLocked back-fills sibling knowledge onto already-stored
// interfaces that e's fresh descriptor names but that were themselves
// learned without sibling advertisements (a legacy-path report, or a row
// stored before the device's identity reached us). Without this, the group
// an interface joins would depend on which interface happened to carry the
// canonical (smallest) address.
func (s *Storage) relinkSiblingsLocked(addr device.Addr, e *Entry) {
	if len(e.Info.Siblings) == 0 {
		return
	}
	for _, sib := range e.Info.Siblings {
		se, ok := s.entries[sib]
		if !ok || len(se.Info.Siblings) > 0 || se.id == e.id {
			continue
		}
		// The reciprocal view: the sibling's interfaces are e's interfaces
		// minus itself, plus e's own address.
		recip := make([]device.Addr, 0, len(e.Info.Siblings))
		recip = append(recip, addr)
		for _, o := range e.Info.Siblings {
			if o != sib {
				recip = append(recip, o)
			}
		}
		sort.Slice(recip, func(i, j int) bool { return recip[i].Less(recip[j]) })
		se.Info.Siblings = recip
		s.reindexIdentityLocked(sib, se)
		s.touchLocked(sib)
	}
}

// IsSelf reports whether a is one of the local device's addresses.
func (s *Storage) IsSelf(a device.Addr) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.self[a]
}

// Len returns the number of known devices.
func (s *Storage) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Lookup returns a copy of the entry for a.
func (s *Storage) Lookup(a device.Addr) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[a]
	if !ok {
		return Entry{}, false
	}
	return e.clone(), true
}

// Snapshot returns copies of all entries, sorted by address for
// deterministic iteration.
func (s *Storage) Snapshot() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e.clone())
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Info.Addr.Less(out[j].Info.Addr)
	})
	return out
}

// Direct returns the entries that currently have a direct route.
func (s *Storage) Direct() []Entry {
	var out []Entry
	for _, e := range s.Snapshot() {
		if e.HasDirect() {
			out = append(out, e)
		}
	}
	return out
}

// FindByName returns the entry of the device with the given name.
func (s *Storage) FindByName(name string) (Entry, bool) {
	for _, e := range s.Snapshot() {
		if e.Info.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// ServiceProvider pairs a device entry with one of its services.
type ServiceProvider struct {
	Entry   Entry
	Service device.ServiceInfo
}

// FindService returns every known provider of the named service, best
// route first (fewest jumps, then the fig 3.13 ordering).
func (s *Storage) FindService(name string) []ServiceProvider {
	var out []ServiceProvider
	for _, e := range s.Snapshot() {
		if svc, ok := e.Info.FindService(name); ok && len(e.Routes) > 0 {
			out = append(out, ServiceProvider{Entry: e, Service: svc})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, _ := out[i].Entry.Best()
		rj, _ := out[j].Entry.Best()
		return s.better(&ri, &rj)
	})
	return out
}

// UpsertDirect records a direct inquiry response: the device is in coverage
// with the measured link quality. Info may be partial (inquiry responses
// carry only the address); full descriptors arrive via UpdateInfo after an
// information fetch.
func (s *Storage) UpsertDirect(info device.Info, quality int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.self[info.Addr] {
		return
	}
	now := s.cfg.Clock.Now()
	e, ok := s.entries[info.Addr]
	infoChanged := false
	if !ok {
		e = s.newEntryLocked()
		e.Info = info.Clone()
		s.entries[info.Addr] = e
		infoChanged = true
	} else if info.Name != "" {
		e.Info = info.Clone()
		infoChanged = true
	}
	// See mergeCandidateLocked: an untouched descriptor cannot change
	// identity groups, so the bare inquiry-refresh path skips the reindex.
	if infoChanged {
		s.reindexIdentityLocked(info.Addr, e)
	}
	s.relinkSiblingsLocked(info.Addr, e)
	e.MissedLoops = 0
	e.LastSeen = now
	route := Route{
		Jumps:          0,
		QualitySum:     quality,
		QualityMin:     quality,
		BridgeMobility: e.Info.Mobility,
		MobilitySum:    int(e.Info.Mobility),
	}
	s.putRouteLocked(e, route)
	s.touchLocked(info.Addr)
}

// UpdateInfo replaces a device's descriptor after an information fetch and
// stamps LastFetched.
func (s *Storage) UpdateInfo(info device.Info) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.self[info.Addr] {
		return
	}
	e, ok := s.entries[info.Addr]
	if !ok {
		return
	}
	e.Info = info.Clone()
	s.reindexIdentityLocked(info.Addr, e)
	s.relinkSiblingsLocked(info.Addr, e)
	e.LastFetched = s.cfg.Clock.Now()
	// Direct routes carry the target's own mobility; refresh it.
	for i := range e.Routes {
		if e.Routes[i].isDirect() {
			e.Routes[i].BridgeMobility = info.Mobility
			e.Routes[i].MobilitySum = int(info.Mobility)
		}
	}
	s.resortLocked(e)
	s.touchLocked(info.Addr)
}

// NeedsFetch reports whether the device's full information is stale with
// respect to the service-check interval (fig 3.12: a longer re-check
// interval for already-known devices saves energy).
func (s *Storage) NeedsFetch(a device.Addr, interval time.Duration) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[a]
	if !ok {
		return true
	}
	if e.LastFetched.IsZero() {
		return true
	}
	return s.cfg.Clock.Since(e.LastFetched) >= interval
}

// MergeResult summarises one AnalyzeNeighbourhoodDevices pass.
type MergeResult struct {
	Added    int // new devices learned
	Updated  int // routes improved or refreshed
	Rejected int // candidates filtered (self, loops, jump cap)
	Removed  int // stale bridged routes dropped
}

// MergeNeighborhood implements AnalyzeNeighbourhoodDevices (fig 3.13): it
// folds a direct neighbour's transmitted DeviceStorage into ours. bridge is
// the reporting neighbour and bridgeQuality our measured link quality to
// it. Every reported device becomes a candidate route via that neighbour
// with one more jump (§3.3); candidates lose against stored routes by the
// fig 3.13 ordering. Routes via bridge that the bridge no longer reports
// are dropped (the bridge lost them, so they are unreachable through it).
func (s *Storage) MergeNeighborhood(bridge device.Addr, bridgeQuality int, nb []phproto.NeighborEntry) MergeResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergesFull.Inc()

	var res MergeResult
	defer s.bookMergeLocked(&res)
	now := s.cfg.Clock.Now()

	bridgeMobility := device.Dynamic
	if be, ok := s.entries[bridge]; ok {
		bridgeMobility = be.Info.Mobility
	}

	reported := s.scratch.reported
	if reported == nil {
		reported = make(map[device.Addr]bool, len(nb))
		s.scratch.reported = reported
	}
	clear(reported)
	for _, ne := range nb {
		reported[ne.Info.Addr] = true
		s.mergeCandidateLocked(bridge, bridgeQuality, bridgeMobility, ne, now, &res)
	}

	// Drop bridged routes the bridge stopped reporting.
	for addr, e := range s.entries {
		if reported[addr] {
			continue
		}
		// The bridge no longer knows this device: a capacity-evicted
		// via-bridge route is not recoverable from it either.
		e.forgetEvictedVia(bridge)
		if n := e.dropRoutes(func(r *Route) bool { return r.Bridge == bridge }); n > 0 {
			res.Removed += n
			if len(e.Routes) == 0 {
				s.removeEntryLocked(addr, e)
			}
			s.touchLocked(addr)
		}
	}
	return res
}

// MergeNeighborhoodDelta folds a delta sync from a direct neighbour into the
// table. Changed rows pass through the same fig 3.13 candidate rules as a
// full merge; tombstones drop the route via this bridge (the bridge lost the
// device, so it is unreachable through it). Unlike the full merge there is
// no "stopped reporting" sweep: absence from a delta means unchanged.
func (s *Storage) MergeNeighborhoodDelta(bridge device.Addr, bridgeQuality int, changed []phproto.NeighborEntry, tombstones []device.Addr) MergeResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergesDelta.Inc()

	var res MergeResult
	defer s.bookMergeLocked(&res)
	now := s.cfg.Clock.Now()

	bridgeMobility := device.Dynamic
	if be, ok := s.entries[bridge]; ok {
		bridgeMobility = be.Info.Mobility
	}

	for _, ne := range changed {
		s.mergeCandidateLocked(bridge, bridgeQuality, bridgeMobility, ne, now, &res)
	}

	for _, addr := range tombstones {
		e, ok := s.entries[addr]
		if !ok {
			continue
		}
		// The bridge lost this device: a capacity-evicted via-bridge route
		// is not recoverable from it either.
		e.forgetEvictedVia(bridge)
		if n := e.dropRoutes(func(r *Route) bool { return r.Bridge == bridge }); n > 0 {
			res.Removed += n
			if len(e.Routes) == 0 {
				s.removeEntryLocked(addr, e)
			}
			s.touchLocked(addr)
		}
	}
	return res
}

// bookMergeLocked records a finished merge's telemetry: row outcomes and
// the table-size gauge. All handles are plain atomics (nil-safe when the
// storage carries no registry), so the merge paths keep their 0 allocs/op
// budgets. Callers hold s.mu.
func (s *Storage) bookMergeLocked(res *MergeResult) {
	s.mergeRows.Add(uint64(res.Added + res.Updated))
	s.mergeRejects.Add(uint64(res.Rejected))
	s.entriesGauge.Set(int64(len(s.entries)))
}

// RefreshBridgeLink recomputes the first-hop aggregates of every route
// through bridge: the link-quality sums from the current inquiry
// measurement, and the bridge-mobility fields from the bridge's current
// descriptor. The full exchange gets both for free — each fetch re-merges
// every reported row with the fresh inquiry quality and descriptor — but a
// delta leaves unchanged rows alone, so the local hop's drift must be
// folded in explicitly; without this, walking away from a bridge would
// leave via-bridge routes priced at the link quality of the round their
// row last changed, and a bridge that turns from dynamic to static would
// never re-rank the routes it carries (fig 3.13 prefers static bridges).
func (s *Storage) RefreshBridgeLink(bridge device.Addr, quality int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mob := device.Dynamic
	if be, ok := s.entries[bridge]; ok {
		mob = be.Info.Mobility
	}
	for addr, e := range s.entries {
		changed := false
		for i := range e.Routes {
			r := &e.Routes[i]
			if r.isDirect() || r.Bridge != bridge {
				continue
			}
			sum := quality + r.RemoteQualitySum
			minq := min(quality, r.RemoteQualityMin)
			if r.QualitySum != sum || r.QualityMin != minq || r.BridgeMobility != mob {
				r.QualitySum, r.QualityMin = sum, minq
				r.MobilitySum += int(mob) - int(r.BridgeMobility)
				r.BridgeMobility = mob
				changed = true
			}
		}
		if changed {
			s.resortLocked(e)
			s.touchLocked(addr)
		}
	}
}

// mergeCandidateLocked applies one reported row's fig 3.13 comparison: the
// row becomes a candidate route via the reporting bridge with one more jump,
// filtered against self-echoes, relay loops, and the jump cap.
func (s *Storage) mergeCandidateLocked(bridge device.Addr, bridgeQuality int, bridgeMobility device.Mobility, ne phproto.NeighborEntry, now time.Time, res *MergeResult) {
	target := ne.Info.Addr
	switch {
	case s.self[target]:
		// Own device comparison filter (fig 3.13).
		res.Rejected++
		return
	case target == bridge:
		res.Rejected++
		return
	case !ne.Bridge.IsZero() && s.self[ne.Bridge]:
		// The neighbour's route to this device passes through us:
		// adopting it would create a two-hop relay loop.
		res.Rejected++
		return
	}
	jumps := int(ne.Jumps) + 1
	if jumps > s.cfg.MaxJumps {
		res.Rejected++
		return
	}
	route := Route{
		Jumps:            jumps,
		Bridge:           bridge,
		QualitySum:       bridgeQuality + int(ne.QualitySum),
		QualityMin:       min(bridgeQuality, int(ne.QualityMin)),
		BridgeMobility:   bridgeMobility,
		MobilitySum:      int(bridgeMobility) + int(ne.Info.Mobility),
		RemoteQualitySum: int(ne.QualitySum),
		RemoteQualityMin: int(ne.QualityMin),
	}
	e, ok := s.entries[target]
	infoChanged := false
	if !ok {
		e = s.newEntryLocked()
		e.Info = ne.Info.Clone()
		e.LastSeen, e.LastFetched = now, now
		s.entries[target] = e
		res.Added++
		infoChanged = true
	} else {
		res.Updated++
		e.LastSeen = now
		// Prefer the richer descriptor: a bridged report may carry
		// services we have not fetched ourselves yet.
		if len(e.Info.Services) == 0 && len(ne.Info.Services) > 0 {
			e.Info = ne.Info.Clone()
			infoChanged = true
		}
		// Same for sibling knowledge: adopt a report's identity links when
		// we have none for this interface.
		if len(e.Info.Siblings) == 0 && len(ne.Info.Siblings) > 0 {
			e.Info.Siblings = append([]device.Addr(nil), ne.Info.Siblings...)
			infoChanged = true
		}
	}
	// Identity derives from the descriptor alone, so an untouched
	// descriptor cannot change groups — skipping the reindex (and its
	// Identity() string build) on the re-report path is what makes a
	// steady-state merge allocation-free.
	if infoChanged {
		s.reindexIdentityLocked(target, e)
	}
	s.relinkSiblingsLocked(target, e)
	s.putRouteLocked(e, route)
	s.touchLocked(target)
}

// AgeRound applies one discovery loop's aging for tech (fig 3.12):
// responded devices are refreshed elsewhere (UpsertDirect); every other
// direct neighbour of this technology gets "older" and its direct route is
// erased after MaxMissedLoops. Devices left with no routes are removed,
// along with any routes bridged through a device that just lost its direct
// route (we can no longer dial that bridge). Returns the removed addresses
// and the devices whose direct route was erased this round — the
// discoverer must reset its delta-sync state for the latter, because the
// sweep just deleted via-them knowledge their own (unchanged) storage would
// never re-send as a delta.
func (s *Storage) AgeRound(tech device.Tech, responded map[device.Addr]bool) (removed, lostBridges []device.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()

	for addr, e := range s.entries {
		if addr.Tech != tech || !e.HasDirect() || responded[addr] {
			continue
		}
		e.MissedLoops++
		if e.MissedLoops <= s.cfg.MaxMissedLoops {
			continue
		}
		e.dropRoutes((*Route).isDirect)
		lostBridges = append(lostBridges, addr)
	}

	// A device whose direct route vanished can no longer serve as our first
	// hop: drop routes bridged through it. Each entry loses all such routes
	// in one pass and is touched once, so how many generations the round
	// takes does not depend on the map's iteration order.
	if len(lostBridges) > 0 {
		for addr, e := range s.entries {
			dropped := e.dropRoutes(func(r *Route) bool {
				return !r.isDirect() && slices.Contains(lostBridges, r.Bridge)
			})
			if dropped > 0 || slices.Contains(lostBridges, addr) {
				s.touchLocked(addr)
			}
		}
	}
	for addr, e := range s.entries {
		if len(e.Routes) == 0 {
			s.removeEntryLocked(addr, e)
			s.touchLocked(addr)
			removed = append(removed, addr)
		}
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i].Less(removed[j]) })
	sort.Slice(lostBridges, func(i, j int) bool { return lostBridges[i].Less(lostBridges[j]) })
	return removed, lostBridges
}

// RemoveDirect erases the direct route to a immediately (used when a dial
// to a direct neighbour fails hard).
func (s *Storage) RemoveDirect(a device.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[a]
	if !ok {
		return
	}
	e.dropRoutes((*Route).isDirect)
	if len(e.Routes) == 0 {
		s.removeEntryLocked(a, e)
	}
	s.touchLocked(a)
}

// WireEntries renders the storage as the neighbourhood message transmitted
// to inquiring peers: every known device with its best route's metadata
// (§3.3 — sending the whole DeviceStorage is what gives the network total
// environment awareness).
func (s *Storage) WireEntries() []phproto.NeighborEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wireEntriesLocked()
}

func (s *Storage) wireEntriesLocked() []phproto.NeighborEntry {
	out := make([]phproto.NeighborEntry, 0, len(s.entries))
	for _, e := range s.entries {
		en, ok := wireEntryOf(e)
		if !ok {
			continue
		}
		en.Info = en.Info.Clone()
		out = append(out, en)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Info.Addr.Less(out[j].Info.Addr)
	})
	return out
}

// wireEntryOf renders one entry's transmitted form. The Info is NOT cloned —
// callers that let the entry escape the storage lock must clone it.
func wireEntryOf(e *Entry) (phproto.NeighborEntry, bool) {
	best, ok := e.Best()
	if !ok {
		return phproto.NeighborEntry{}, false
	}
	return phproto.NeighborEntry{
		Info:       e.Info,
		Jumps:      uint8(min(best.Jumps, 255)),
		Bridge:     best.Bridge,
		QualitySum: uint32(max(best.QualitySum, 0)),
		QualityMin: uint8(min(max(best.QualityMin, 0), 255)),
	}, true
}

// publishedRow is one wire-visible entry as peers last saw it. addr is
// kept beside the entry because a removed entry's box is zeroed before
// touchLocked unpublishes it.
type publishedRow struct {
	addr device.Addr
	e    *Entry
	hash uint64
}

// findPublishedLocked returns the index of addr's published row, or where
// it would be inserted, and whether it is there.
func (s *Storage) findPublishedLocked(addr device.Addr) (int, bool) {
	i := sort.Search(len(s.published), func(i int) bool { return !s.published[i].addr.Less(addr) })
	return i, i < len(s.published) && s.published[i].addr == addr
}

// Versioned delta sync.
//
// touchLocked is the single choke point every mutation above funnels
// through: it re-renders the device's cached row and, only if that row
// actually changed, advances the generation, stamps the entry, maintains
// the running table digest and the tombstone log, and moves the delta
// window's floor. A refresh peers cannot observe — LastSeen, an identical
// re-reported route — leaves the generation untouched, which is what makes
// a static neighbourhood's deltas empty.
func (s *Storage) touchLocked(addr device.Addr) {
	e, ok := s.entries[addr]
	visible := ok && len(e.Routes) > 0
	if visible {
		if !e.renderRow() {
			return // a current row is published under its own hash
		}
	} else if ok && e.row != nil {
		e.row.buf = e.row.buf[:0]
	}
	i, had := s.findPublishedLocked(addr)
	if visible == had && (!visible || s.published[i].hash == e.row.hash) {
		return
	}
	s.gen++
	if had {
		s.digestHash ^= s.published[i].hash
	}
	switch {
	case visible && had:
		s.published[i].e, s.published[i].hash = e, e.row.hash
	case visible:
		s.published = slices.Insert(s.published, i, publishedRow{addr: addr, e: e, hash: e.row.hash})
	default:
		s.published = slices.Delete(s.published, i, i+1)
		s.tombs[addr] = s.gen
	}
	if visible {
		s.digestHash ^= e.row.hash
		e.Gen = s.gen
		delete(s.tombs, addr)
	}
	if n := s.gen - s.floor; n > uint64(s.cfg.JournalLimit) {
		// Forget the older half of the window; peers behind the new floor
		// get FULL.
		s.floor = s.gen - (n - n/2)
		for a, g := range s.tombs {
			if g <= s.floor {
				delete(s.tombs, a)
			}
		}
	}
}

// Digest summarises the storage's transmitted state for the sync handshake
// and for observability (phctl digest).
type Digest struct {
	// Epoch identifies this storage instance; it changes on restart, which
	// is how peers detect that the generation counter started over.
	Epoch uint64
	// Gen is the generation of the last wire-visible mutation.
	Gen uint64
	// Entries is the number of wire-visible devices.
	Entries int
	// Hash is the XOR of the per-entry fingerprints (phproto.DigestOf
	// convention over WireEntries).
	Hash uint64
}

// Digest returns the storage's current digest.
func (s *Storage) Digest() Digest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.digestLocked()
}

func (s *Storage) digestLocked() Digest {
	return Digest{Epoch: s.epoch, Gen: s.gen, Entries: len(s.published), Hash: s.digestHash}
}

// changedSinceLocked returns, in address order, the wire-visible entries
// whose row changed after generation since (all of them for since 0). The
// slice is the mu-guarded scratch, valid until the next call.
func (s *Storage) changedSinceLocked(since uint64) []*Entry {
	sel := s.scratch.rows[:0]
	for _, p := range s.published {
		if p.e.Gen > since {
			sel = append(sel, p.e)
		}
	}
	s.scratch.rows = sel
	return sel
}

// rowsOf copies the cached rows of sel, in order, into one buffer owned by
// the returned value, so the answer stays valid after the lock is released
// and the rows are re-rendered in place.
func rowsOf(sel []*Entry) phproto.Rows {
	size := 0
	for _, e := range sel {
		size += len(e.row.buf)
	}
	var rows phproto.Rows
	rows.Grow(size)
	for _, e := range sel {
		rows.Append(e.row.buf)
	}
	return rows
}

// SyncResponse answers a versioned neighbourhood fetch: a DELTA when the
// epoch matches and the requested generation is inside the delta window,
// otherwise a FULL table. Both carry the cached row bytes. The daemon's
// responder calls it directly unless a load penalty skews its advertised
// entries (then it builds phproto.FullSync over the penalised rows itself).
//
// extended states whether the fetcher negotiated the sibling-carrying
// entry form. A fetcher that did not cannot decode extended entries, and
// our digest covers them — so when the table holds any, the whole answer
// degrades to a stripped, unsyncable epoch-0 snapshot (the load-penalty
// convention). The check and the render happen under one lock, so a
// concurrent sibling adoption cannot slip an extended entry into a
// legacy-form answer.
func (s *Storage) SyncResponse(epoch, gen uint64, extended bool) *phproto.NeighborhoodSync {
	// Write lock: the row selection uses the mu-guarded scratch. Responders
	// serve one sync at a time per connection, so the lost read-side
	// sharing is noise next to the per-request garbage it removes.
	s.mu.Lock()
	defer s.mu.Unlock()
	if !extended {
		for _, p := range s.published {
			if len(p.e.Info.Siblings) > 0 {
				entries := phproto.StripSiblings(s.wireEntriesLocked())
				if len(entries) > phproto.MaxEntries {
					entries = entries[:phproto.MaxEntries]
				}
				s.syncServedFull.Inc()
				return phproto.FullSync(0, 0, entries)
			}
		}
	}
	if epoch == s.epoch {
		if resp, ok := s.deltaLocked(gen); ok {
			s.syncServedDelta.Inc()
			return resp
		}
	}
	s.syncServedFull.Inc()
	sel := s.changedSinceLocked(0)
	if len(sel) > phproto.MaxEntries {
		// A table beyond the wire's entry cap cannot be transmitted whole
		// (deltaLocked refuses over-cap windows for the same reason).
		// Serve the deterministic prefix as an unsyncable epoch-0
		// snapshot — the load-penalty convention — so the peer keeps a
		// partial view instead of choking on an undecodable frame.
		sel = sel[:phproto.MaxEntries]
		var hash uint64
		for _, e := range sel {
			hash ^= e.row.hash
		}
		return &phproto.NeighborhoodSync{Full: true, Rows: rowsOf(sel), DigestCount: uint32(len(sel)), DigestHash: hash}
	}
	// The incremental digest equals DigestOf over the transmitted table
	// (the reconstruction property test checks this every step), so the
	// FULL answer need not re-hash every entry the way the daemon's
	// load-penalty path — whose advertised entries are skewed — must.
	return &phproto.NeighborhoodSync{
		Full:        true,
		Epoch:       s.epoch,
		ToGen:       s.gen,
		Rows:        rowsOf(sel),
		DigestCount: uint32(len(s.published)),
		DigestHash:  s.digestHash,
	}
}

// deltaLocked builds the DELTA from generation since: the rows stamped
// after it and the tombstones logged after it, both in address order. ok
// is false when since is outside the window (below the floor, or from
// another epoch's future) or the change does not fit one frame.
func (s *Storage) deltaLocked(since uint64) (*phproto.NeighborhoodSync, bool) {
	if since < s.floor || since > s.gen {
		return nil, false
	}
	var sel []*Entry
	var tombs []device.Addr
	if since < s.gen {
		sel = s.changedSinceLocked(since)
		for a, g := range s.tombs {
			if g > since {
				tombs = append(tombs, a)
			}
		}
		if len(sel)+len(tombs) > phproto.MaxEntries {
			// A window larger than the wire's entry cap (Config.JournalLimit
			// above phproto.MaxEntries) can cover changes no frame could
			// carry; serve FULL rather than an undecodable delta.
			return nil, false
		}
		sort.Slice(tombs, func(i, j int) bool { return tombs[i].Less(tombs[j]) })
	}
	return &phproto.NeighborhoodSync{
		Epoch:       s.epoch,
		FromGen:     since,
		ToGen:       s.gen,
		Rows:        rowsOf(sel),
		Tombstones:  tombs,
		DigestCount: uint32(len(s.published)),
		DigestHash:  s.digestHash,
	}, true
}

// AlternateRoutes returns every candidate route to a, best first,
// optionally excluding one first hop (the handover thread excludes the
// currently failing bridge, §5.2.2).
func (s *Storage) AlternateRoutes(a device.Addr, excludeBridge device.Addr) []Route {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[a]
	if !ok {
		return nil
	}
	out := make([]Route, 0, len(e.Routes))
	for _, r := range e.Routes {
		if !excludeBridge.IsZero() && r.Bridge == excludeBridge {
			continue
		}
		out = append(out, r)
	}
	return out
}

// identityOfLocked resolves the device identity of interface a. When a's
// own entry is gone (an aged-out radio), a surviving entry that advertises
// a as a sibling still resolves it: the identity outlives any single
// interface row, which is what lets handover rescue a connection whose
// bearer's entry died while the peer stayed reachable on another radio.
func (s *Storage) identityOfLocked(a device.Addr) (device.ID, bool) {
	if e, ok := s.entries[a]; ok {
		return e.id, true
	}
	for _, se := range s.entries {
		for _, sib := range se.Info.Siblings {
			if sib == a {
				return se.id, true
			}
		}
	}
	return "", false
}

// Siblings returns the stored entries for the other interfaces of a's
// device identity, in address order. A device known through only one
// interface (or a legacy peer that never advertised siblings) has none.
func (s *Storage) Siblings(a device.Addr) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.identityOfLocked(a)
	if !ok {
		return nil
	}
	var out []Entry
	for addr := range s.ids[id] {
		if addr == a {
			continue
		}
		if se, ok := s.entries[addr]; ok {
			out = append(out, se.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.Addr.Less(out[j].Info.Addr) })
	return out
}

// Candidate is one identity-aware way to reach a logical peer: a stored
// route to one of its interfaces. Vertical candidates target a sibling
// interface — "same peer, different radio" — and exist only because the
// identity index groups the per-interface rows.
type Candidate struct {
	// Target is the interface address the route reaches.
	Target device.Addr
	// Route is the stored route to Target.
	Route Route
	// Vertical marks a candidate on a sibling interface of the queried one.
	Vertical bool
}

// FirstHop returns the interface the local device must dial to use the
// candidate: the route's bridge, or the target itself when direct. Its
// technology is the radio the local device will actually hold.
func (c Candidate) FirstHop() device.Addr {
	if c.Route.Direct() {
		return c.Target
	}
	return c.Route.Bridge
}

// AlternateRoutesByIdentity is the identity-aware AlternateRoutes: every
// candidate route to a's device — routes to a itself, then routes to each
// sibling interface of its identity — excluding routes whose first hop is
// excludeBridge (the failing bridge of §5.2.2). Routes keep their stored
// best-first order within each interface; cross-candidate ranking is the
// caller's policy decision.
func (s *Storage) AlternateRoutesByIdentity(a device.Addr, excludeBridge device.Addr) []Candidate {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.identityOfLocked(a)
	if !ok {
		return nil
	}
	var out []Candidate
	add := func(target device.Addr, entry *Entry, vertical bool) {
		for _, r := range entry.Routes {
			if !excludeBridge.IsZero() && r.Bridge == excludeBridge {
				continue
			}
			out = append(out, Candidate{Target: target, Route: r, Vertical: vertical})
		}
	}
	if e, ok := s.entries[a]; ok {
		add(a, e, false)
	}
	members := make([]device.Addr, 0, len(s.ids[id]))
	for addr := range s.ids[id] {
		if addr != a {
			members = append(members, addr)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Less(members[j]) })
	for _, addr := range members {
		if se, ok := s.entries[addr]; ok {
			add(addr, se, true)
		}
	}
	return out
}

// putRouteLocked installs route as the candidate for its first hop,
// keeping Routes sorted best-first and capped at MaxAlternates.
func (s *Storage) putRouteLocked(e *Entry, route Route) {
	// The fresh report for this first hop replaces the stored one.
	e.dropRoutes(func(r *Route) bool { return r.Bridge == route.Bridge })
	e.Routes = append(e.Routes, route)
	if !route.Direct() {
		e.forgetEvictedVia(route.Bridge)
	}
	s.resortLocked(e)
	if len(e.Routes) > s.cfg.MaxAlternates {
		for i := s.cfg.MaxAlternates; i < len(e.Routes); i++ {
			if r := &e.Routes[i]; !r.isDirect() {
				e.noteEvictedVia(r.Bridge)
			}
		}
		e.Routes = e.Routes[:s.cfg.MaxAlternates]
	}
}

// removeEntryLocked drops a device that ran out of routes, remembering
// which bridges' capacity-evicted routes could have kept it reachable.
// The Entry box is recycled onto the free list: its descriptor is zeroed
// (so the GC can reclaim the old services) but the Routes, evictedVia and
// row backing arrays are kept for the next add.
func (s *Storage) removeEntryLocked(addr device.Addr, e *Entry) {
	for _, b := range e.evictedVia {
		s.evicted[b] = true
	}
	s.dropIdentityLocked(addr, e.id)
	delete(s.entries, addr)
	if e.row != nil {
		*e.row = wireRow{buf: e.row.buf[:0]}
	}
	*e = Entry{Routes: e.Routes[:0], evictedVia: e.evictedVia[:0], row: e.row}
	if len(s.free) < maxFreeEntries {
		s.free = append(s.free, e)
	}
}

// newEntryLocked returns a zeroed Entry, recycled from the free list when
// one is available.
func (s *Storage) newEntryLocked() *Entry {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &Entry{}
}

// TakeEvictedBridges drains and returns the bridges of tech that may still
// reach a device removed since the last call, through a route the
// MaxAlternates cap evicted. The discoverer resets those bridges'
// delta-sync state: the evicted knowledge exists only on our side, so
// nothing short of a full fetch could restore it.
func (s *Storage) TakeEvictedBridges(tech device.Tech) []device.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []device.Addr
	for a := range s.evicted {
		if a.Tech == tech {
			out = append(out, a)
			delete(s.evicted, a)
		}
	}
	return out
}

// resortLocked restores the best-first route order. Routes is capped at
// MaxAlternates (+1 transiently), so a stable insertion sort beats
// sort.SliceStable here: it is branch-cheap at this size and — unlike the
// closure-and-interface machinery of the sort package on a hot path that
// runs once per merged row — performs no allocations.
func (s *Storage) resortLocked(e *Entry) {
	rs := e.Routes
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && s.better(&rs[j], &rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// better implements the fig 3.13 route comparison: fewer jumps win; ties go
// to the lower (more static) first-hop mobility; then to routes whose every
// hop clears the quality threshold (fig 3.9's equity rule); finally to the
// higher quality sum (§3.4.1). With QualityFirst the mobility and quality
// criteria swap places (ablation A1). It takes pointers: a Route is large
// enough that copying two per comparison showed in the route re-sort.
func (s *Storage) better(a, b *Route) bool {
	if a.Jumps != b.Jumps {
		return a.Jumps < b.Jumps
	}
	aOK := a.QualityMin >= s.cfg.QualityThreshold
	bOK := b.QualityMin >= s.cfg.QualityThreshold
	if s.cfg.QualityFirst {
		if aOK != bOK {
			return aOK
		}
		if a.QualitySum != b.QualitySum {
			return a.QualitySum > b.QualitySum
		}
		return a.BridgeMobility < b.BridgeMobility
	}
	if a.BridgeMobility != b.BridgeMobility {
		return a.BridgeMobility < b.BridgeMobility
	}
	if aOK != bOK {
		return aOK
	}
	return a.QualitySum > b.QualitySum
}

// CompareRoutes exposes the route ordering for other packages (handover
// picks "the best quality way", fig 5.5 state 0).
func (s *Storage) CompareRoutes(a, b Route) bool { return s.better(&a, &b) }

// String renders the storage as the thesis' fig 3.6 table for debugging
// and the experiment harness.
func (s *Storage) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-24s %5s  %-24s %7s %6s\n",
		"NAME", "ADDR", "JUMPS", "BRIDGE", "QUALITY", "MOB")
	for _, e := range s.Snapshot() {
		best, ok := e.Best()
		if !ok {
			continue
		}
		bridge := "-"
		if !best.Bridge.IsZero() {
			bridge = best.Bridge.String()
		}
		fmt.Fprintf(&b, "%-16s %-24s %5d  %-24s %7d %6s\n",
			e.Info.Name, e.Info.Addr, best.Jumps, bridge, best.QualitySum, e.Info.Mobility)
	}
	return b.String()
}
