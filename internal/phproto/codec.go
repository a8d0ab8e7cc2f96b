package phproto

import (
	"encoding/binary"
	"fmt"

	"peerhood/internal/device"
)

// extMarker introduces an extended (sibling-carrying) encoding of a device
// descriptor or neighbourhood entry. Both start, in their legacy form, with
// a u16 string length that the codec caps at MaxStringLen (4096), so 0xFFFF
// can never open a legacy payload: a decoder that sees it knows an
// extension version byte and the extended layout follow, and a legacy
// payload decodes exactly as before. Extended forms are only sent to peers
// that negotiated them (InfoDeviceEx, SyncFlagSiblings).
const extMarker uint16 = 0xFFFF

// extVersion is the current extended-encoding version.
const extVersion uint8 = 1

// encoder builds a frame payload. Write order must mirror decoder exactly.
type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}
func (e *encoder) u32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}
func (e *encoder) u64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

func (e *encoder) str(s string) {
	if len(s) > MaxStringLen {
		s = s[:MaxStringLen]
	}
	e.u16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) addr(a device.Addr) {
	e.u8(uint8(a.Tech))
	e.str(a.MAC)
}

func (e *encoder) services(ss []device.ServiceInfo) {
	n := len(ss)
	if n > MaxServices {
		n = MaxServices
	}
	e.u16(uint16(n))
	for _, s := range ss[:n] {
		e.str(s.Name)
		e.str(s.Attr)
		e.u16(s.Port)
	}
}

// info writes the legacy descriptor layout. Siblings are NOT written here:
// they ride in the extended forms (infoAny, neighborEntry) so every message
// that embeds a descriptor without negotiation (hellos) stays legacy.
func (e *encoder) info(i device.Info) {
	e.str(i.Name)
	e.addr(i.Addr)
	e.u32(i.Checksum)
	e.u8(uint8(i.Mobility))
	e.services(i.Services)
}

// infoAny writes i in the extended form when it carries siblings and the
// legacy form otherwise, so descriptors without siblings encode (and hash)
// byte-identically to the pre-identity wire.
func (e *encoder) infoAny(i device.Info) {
	if len(i.Siblings) == 0 {
		e.info(i)
		return
	}
	e.u16(extMarker)
	e.u8(extVersion)
	e.info(i)
	e.addrs(i.Siblings)
}

// neighborEntry writes the entry, using the extended form only when its
// descriptor advertises siblings (see infoAny for the compatibility rule).
// Senders serving legacy peers must strip siblings first (StripSiblings).
func (e *encoder) neighborEntry(en NeighborEntry) {
	if len(en.Info.Siblings) == 0 {
		e.legacyNeighborEntry(en)
		return
	}
	e.u16(extMarker)
	e.u8(extVersion)
	e.legacyNeighborEntry(en)
	e.addrs(en.Info.Siblings)
}

func (e *encoder) legacyNeighborEntry(en NeighborEntry) {
	e.info(en.Info)
	e.u8(en.Jumps)
	e.addr(en.Bridge)
	e.u32(en.QualitySum)
	e.u8(en.QualityMin)
}

func (e *encoder) neighborEntries(entries []NeighborEntry) {
	e.u16(uint16(len(entries)))
	for _, en := range entries {
		e.neighborEntry(en)
	}
}

func (e *encoder) addrs(as []device.Addr) {
	e.u16(uint16(len(as)))
	for _, a := range as {
		e.addr(a)
	}
}

// decoder consumes a frame payload. The first error sticks; all subsequent
// reads return zero values, so message decoders can read unconditionally
// and check d.err once.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrMalformed, what, d.off)
	}
}

// failTooMany reports a declared element count above the decodable cap —
// the frame read fine, it just announces more than any valid sender emits.
func (d *decoder) failTooMany(n int, what string, max int) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %d %s (max %d)", ErrMalformed, n, what, max)
	}
}

// peekExt reports whether the next two bytes announce an extended encoding,
// without consuming anything. A short remainder is simply "not extended" —
// the legacy decode path will produce the precise truncation error.
func (d *decoder) peekExt() bool {
	if d.err != nil || d.off+2 > len(d.buf) {
		return false
	}
	return binary.BigEndian.Uint16(d.buf[d.off:d.off+2]) == extMarker
}

// more reports whether undecoded payload bytes remain. Messages use it to
// decode trailing-optional fields: a newer sender appends them only when
// non-zero, an older decoder that never looks fails Read's trailing-bytes
// check and closes the connection — which is exactly the legacy-fallback
// signal the negotiated extensions rely on.
func (d *decoder) more() bool {
	return d.err == nil && d.off < len(d.buf)
}

// extHeader consumes an extended-encoding introducer (marker + version).
func (d *decoder) extHeader() {
	d.u16() // marker, already peeked
	if v := d.u8(); d.err == nil && v != extVersion {
		d.err = fmt.Errorf("%w: unsupported extension version %d", ErrMalformed, v)
	}
}

func (d *decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2, "u16")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) str() string {
	n := int(d.u16())
	if n > MaxStringLen {
		d.fail("string length")
		return ""
	}
	b := d.take(n, "string")
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *decoder) bytesLimited(maxLen int) []byte {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n > maxLen {
		d.fail("bytes length")
		return nil
	}
	if n == 0 {
		return nil
	}
	b := d.take(n, "bytes")
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func (d *decoder) addr() device.Addr {
	t := device.Tech(d.u8())
	mac := d.str()
	if d.err != nil {
		return device.Addr{}
	}
	return device.Addr{Tech: t, MAC: mac}
}

func (d *decoder) services() []device.ServiceInfo {
	n := int(d.u16())
	if d.err != nil {
		return nil
	}
	if n > MaxServices {
		d.failTooMany(n, "services", MaxServices)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]device.ServiceInfo, 0, n)
	for i := 0; i < n; i++ {
		s := device.ServiceInfo{Name: d.str(), Attr: d.str(), Port: d.u16()}
		if d.err != nil {
			return nil
		}
		out = append(out, s)
	}
	return out
}

func (d *decoder) neighborEntry() NeighborEntry {
	ext := d.peekExt()
	if ext {
		d.extHeader()
	}
	var en NeighborEntry
	en.Info = d.info()
	en.Jumps = d.u8()
	en.Bridge = d.addr()
	en.QualitySum = d.u32()
	en.QualityMin = d.u8()
	if ext {
		en.Info.Siblings = d.addrs()
		if d.err == nil && len(en.Info.Siblings) == 0 {
			// The extended form exists only to carry siblings; an empty list
			// would re-encode in the legacy form and break the canonical-
			// encoding invariant the fuzz round trip pins.
			d.err = fmt.Errorf("%w: extended entry without siblings", ErrMalformed)
		}
	}
	return en
}

// infoAny decodes a descriptor in either the legacy or the extended form
// (see encoder.infoAny).
func (d *decoder) infoAny() device.Info {
	ext := d.peekExt()
	if ext {
		d.extHeader()
	}
	i := d.info()
	if ext {
		i.Siblings = d.addrs()
		if d.err == nil && len(i.Siblings) == 0 {
			d.err = fmt.Errorf("%w: extended descriptor without siblings", ErrMalformed)
		}
	}
	return i
}

func (d *decoder) neighborEntries() []NeighborEntry {
	entries, _ := d.entryList(false)
	return entries
}

// entryList decodes a counted entry list. With hashed it also returns
// each entry's FNV-64a over the bytes the entry was decoded from.
func (d *decoder) entryList(hashed bool) ([]NeighborEntry, []uint64) {
	n := int(d.u16())
	if d.err != nil {
		return nil, nil
	}
	if n > MaxEntries {
		d.failTooMany(n, "neighbourhood entries", MaxEntries)
		return nil, nil
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]NeighborEntry, 0, n)
	var hashes []uint64
	if hashed {
		hashes = make([]uint64, 0, n)
	}
	for i := 0; i < n; i++ {
		start := d.off
		en := d.neighborEntry()
		if d.err != nil {
			return nil, nil
		}
		out = append(out, en)
		if hashed {
			hashes = append(hashes, appendHash64(d.buf[start:d.off]))
		}
	}
	return out, hashes
}

func (d *decoder) addrs() []device.Addr {
	n := int(d.u16())
	if d.err != nil {
		return nil
	}
	if n > MaxEntries {
		d.failTooMany(n, "addresses", MaxEntries)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]device.Addr, 0, n)
	for i := 0; i < n; i++ {
		a := d.addr()
		if d.err != nil {
			return nil
		}
		out = append(out, a)
	}
	return out
}

func (d *decoder) info() device.Info {
	i := device.Info{
		Name:     d.str(),
		Addr:     d.addr(),
		Checksum: d.u32(),
		Mobility: device.Mobility(d.u8()),
	}
	i.Services = d.services()
	if d.err != nil {
		return device.Info{}
	}
	return i
}
