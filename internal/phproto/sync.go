package phproto

import (
	"slices"

	"peerhood/internal/device"
)

// This file defines the versioned neighbourhood exchange that replaces the
// retransmit-everything fetch of fig 3.7 for peers that support it. The
// fetcher opens with the responder (epoch, generation) it last merged; the
// responder answers with a DELTA — only the entries whose transmitted form
// changed since that generation, plus tombstones for devices that left its
// table — or falls back to FULL when it cannot cover the gap (first
// contact, a request older than the responder's delta window, or a restart
// detected through the epoch).
// Legacy peers keep using CmdNeighborhood; both framings stay decodable.

// Sync-request capability flags.
const (
	// SyncFlagSiblings announces that the fetcher decodes the extended
	// (sibling-carrying) entry form. A responder answering a request
	// without it must serve legacy-form entries — and, because its table
	// digest covers the extended forms, it serves them as an unsyncable
	// epoch-0 snapshot (the load-penalty convention) rather than a delta
	// the fetcher could never digest-verify.
	SyncFlagSiblings uint8 = 1 << 0
)

// NeighborhoodSyncRequest opens a versioned neighbourhood fetch.
type NeighborhoodSyncRequest struct {
	// Epoch is the responder's storage epoch the fetcher last synced
	// against; zero means first contact.
	Epoch uint64
	// Gen is the responder generation the fetcher has fully merged.
	Gen uint64
	// Flags carries the fetcher's capability bits. It is a trailing
	// optional byte: requests from peers that predate it decode with
	// Flags 0, and a zero Flags encodes byte-identically to them.
	// The two bytes after Flags are retired: a request carrying them
	// fails to decode.
	Flags uint8
}

// Cmd implements Message.
func (*NeighborhoodSyncRequest) Cmd() Command { return CmdNeighborhoodSyncRequest }

func (m *NeighborhoodSyncRequest) encodeTo(e *encoder) {
	e.u64(m.Epoch)
	e.u64(m.Gen)
	if m.Flags != 0 {
		e.u8(m.Flags)
	}
}

func (m *NeighborhoodSyncRequest) decodeFrom(d *decoder) error {
	m.Epoch = d.u64()
	m.Gen = d.u64()
	if d.err == nil && d.off < len(d.buf) {
		m.Flags = d.u8()
	}
	return d.err
}

// NeighborhoodSync answers a NeighborhoodSyncRequest.
type NeighborhoodSync struct {
	// Full marks a complete table transmission; Entries then holds every
	// wire-visible device and Tombstones is empty.
	Full bool
	// Epoch identifies the responder's storage instance; a change since the
	// last fetch means the responder restarted and counts from zero again.
	Epoch uint64
	// FromGen is the generation this delta starts from (the requested one);
	// zero for Full.
	FromGen uint64
	// ToGen is the responder generation the receiver reaches after applying
	// this message.
	ToGen uint64
	// Entries are the rows whose transmitted form changed in
	// (FromGen, ToGen] — or the whole table when Full.
	Entries []NeighborEntry
	// Rows, when it holds any, is transmitted in place of Entries: the
	// same rows, already encoded by a responder that caches each row's
	// wire form (the storage). Decoding always fills Entries instead.
	Rows Rows
	// Tombstones lists devices that left the responder's table in
	// (FromGen, ToGen].
	Tombstones []device.Addr
	// DigestCount and DigestHash describe the responder's full table at
	// ToGen, so the fetcher can verify its reconstruction end to end and
	// fall back to a full fetch on mismatch.
	DigestCount uint32
	DigestHash  uint64

	// hashes holds, for a decoded message, the FNV-64a of the exact bytes
	// each of Entries arrived in (see EntryHash).
	hashes []uint64
}

// Cmd implements Message.
func (*NeighborhoodSync) Cmd() Command { return CmdNeighborhoodSync }

// EntryHash returns Entries[i].Hash(). A decoded message answers from the
// bytes the row arrived in, hashed while decoding, so the fetcher verifies
// a sync without re-encoding a single row; the two agree because the
// decoder accepts only canonical entry encodings (FuzzDecode checks it).
// A message built in process hashes its entry on demand.
func (m *NeighborhoodSync) EntryHash(i int) uint64 {
	if i < len(m.hashes) {
		return m.hashes[i]
	}
	return m.Entries[i].Hash()
}

func (m *NeighborhoodSync) encodeTo(e *encoder) {
	if m.Full {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u64(m.Epoch)
	e.u64(m.FromGen)
	e.u64(m.ToGen)
	if m.Rows.n > 0 {
		e.u16(uint16(m.Rows.n))
		e.buf = append(e.buf, m.Rows.buf...)
	} else {
		e.neighborEntries(m.Entries)
	}
	e.addrs(m.Tombstones)
	e.u32(m.DigestCount)
	e.u64(m.DigestHash)
}

func (m *NeighborhoodSync) decodeFrom(d *decoder) error {
	m.Full = d.u8() == 1
	m.Epoch = d.u64()
	m.FromGen = d.u64()
	m.ToGen = d.u64()
	m.Entries, m.hashes = d.entryList(true)
	m.Tombstones = d.addrs()
	m.DigestCount = d.u32()
	m.DigestHash = d.u64()
	return d.err
}

// Rows is a run of neighbourhood entries already in wire form, back to
// back, each as AppendEntry renders it. The zero value is empty.
type Rows struct {
	buf []byte
	n   int
}

// Grow makes room for n more bytes of rows.
func (r *Rows) Grow(n int) { r.buf = slices.Grow(r.buf, n) }

// Append adds one encoded row.
func (r *Rows) Append(row []byte) {
	r.buf = append(r.buf, row...)
	r.n++
}

// Len returns the number of rows.
func (r *Rows) Len() int { return r.n }

// AppendEntry appends en's wire encoding — exactly the bytes a message
// carrying en transmits for it — to dst.
func AppendEntry(dst []byte, en NeighborEntry) []byte {
	e := encoder{buf: dst}
	e.neighborEntry(en)
	return e.buf
}

// HashRow is the FNV-64a fingerprint of one encoded row: HashRow of
// AppendEntry(nil, en) equals en.Hash().
func HashRow(row []byte) uint64 { return appendHash64(row) }

// FullSync builds a FULL NeighborhoodSync over the given entries, with the
// digest computed over exactly what is transmitted (the daemon uses it when
// a load penalty skews advertised entries away from the stored table).
func FullSync(epoch, gen uint64, entries []NeighborEntry) *NeighborhoodSync {
	count, hash := DigestOf(entries)
	return &NeighborhoodSync{
		Full:        true,
		Epoch:       epoch,
		ToGen:       gen,
		Entries:     entries,
		DigestCount: count,
		DigestHash:  hash,
	}
}

// DigestInfo carries a storage digest on the wire (the InfoDigest answer).
type DigestInfo struct {
	Epoch   uint64
	Gen     uint64
	Entries uint32
	Hash    uint64
}

// Cmd implements Message.
func (*DigestInfo) Cmd() Command { return CmdDigest }

func (m *DigestInfo) encodeTo(e *encoder) {
	e.u64(m.Epoch)
	e.u64(m.Gen)
	e.u32(m.Entries)
	e.u64(m.Hash)
}

func (m *DigestInfo) decodeFrom(d *decoder) error {
	m.Epoch = d.u64()
	m.Gen = d.u64()
	m.Entries = d.u32()
	m.Hash = d.u64()
	return d.err
}

// StripSiblings returns entries with every sibling advertisement removed,
// sharing the input slice when nothing carries one. Responders use it to
// render a table for peers that did not negotiate the extended entry form:
// a stripped entry encodes — and therefore hashes — exactly as the
// pre-identity wire did.
func StripSiblings(entries []NeighborEntry) []NeighborEntry {
	out := entries
	copied := false
	for i, en := range entries {
		if len(en.Info.Siblings) == 0 {
			continue
		}
		if !copied {
			out = append([]NeighborEntry(nil), entries...)
			copied = true
		}
		out[i].Info.Siblings = nil
	}
	return out
}

// Hash returns a stable fingerprint of the entry's transmitted form (FNV-64a
// over its wire encoding). Two entries hash equal iff they encode equal, so
// the storage can detect "this mutation changed nothing a peer would see"
// and skip bumping its generation.
func (en NeighborEntry) Hash() uint64 {
	enc := getEncoder()
	enc.enc.buf = enc.enc.buf[:0]
	enc.enc.neighborEntry(en)
	h := appendHash64(enc.enc.buf)
	putEncoder(enc)
	return h
}

// DigestOf summarises a transmitted table as (entry count, XOR of entry
// hashes). XOR makes the digest order-independent and incrementally
// maintainable: adding or removing an entry XORs its hash in or out.
func DigestOf(entries []NeighborEntry) (count uint32, hash uint64) {
	for _, en := range entries {
		hash ^= en.Hash()
	}
	return uint32(len(entries)), hash
}
