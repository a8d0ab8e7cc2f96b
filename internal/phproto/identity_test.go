package phproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"peerhood/internal/device"
)

func btA(mac string) device.Addr { return device.Addr{Tech: device.TechBluetooth, MAC: mac} }

func siblingInfo() device.Info {
	return device.Info{
		Name:     "dual",
		Addr:     device.Addr{Tech: device.TechWLAN, MAC: "02:70:68:00:00:10"},
		Mobility: device.Hybrid,
		Services: []device.ServiceInfo{{Name: "echo", Port: 11}},
		Siblings: []device.Addr{
			{Tech: device.TechGPRS, MAC: "02:70:68:00:00:11"},
			btA("02:70:68:00:00:12"),
		},
	}
}

// TestDeviceInfoSiblingRoundTrip: a descriptor with siblings survives the
// extended encoding, and one without encodes byte-identically to the
// pre-identity wire (so legacy receivers keep decoding it).
func TestDeviceInfoSiblingRoundTrip(t *testing.T) {
	got := roundTrip(t, &DeviceInfo{Info: siblingInfo()}).(*DeviceInfo)
	if !reflect.DeepEqual(got.Info, siblingInfo()) {
		t.Fatalf("round trip changed the descriptor:\n%#v\n%#v", got.Info, siblingInfo())
	}

	plain := siblingInfo()
	plain.Siblings = nil
	var buf bytes.Buffer
	if err := Write(&buf, &DeviceInfo{Info: plain}); err != nil {
		t.Fatal(err)
	}
	// The legacy layout opens with the u16 name length — never the
	// extension marker.
	payload := buf.Bytes()[5:]
	if len(payload) >= 2 && payload[0] == 0xff && payload[1] == 0xff {
		t.Fatal("sibling-free descriptor used the extended encoding")
	}
}

// TestNeighborhoodSyncSiblingEntries: sibling-carrying entries survive the
// versioned sync framing, and their Hash covers the siblings (a sibling
// change must advance the storage generation and the table digest).
func TestNeighborhoodSyncSiblingEntries(t *testing.T) {
	en := NeighborEntry{Info: siblingInfo(), Jumps: 1, Bridge: btA("02:70:68:00:00:02"), QualitySum: 470, QualityMin: 235}
	msg := &NeighborhoodSync{Epoch: 3, FromGen: 1, ToGen: 2, Entries: []NeighborEntry{en}, DigestCount: 1, DigestHash: en.Hash()}
	got := roundTrip(t, msg).(*NeighborhoodSync)
	if !reflect.DeepEqual(got.Entries[0].Info.Siblings, en.Info.Siblings) {
		t.Fatalf("siblings lost in sync framing: %v", got.Entries[0].Info.Siblings)
	}

	stripped := StripSiblings([]NeighborEntry{en})[0]
	if stripped.Hash() == en.Hash() {
		t.Fatal("sibling advertisement is not hash-visible")
	}
	if len(en.Info.Siblings) == 0 {
		t.Fatal("StripSiblings mutated its input")
	}
	// A stripped entry hashes exactly as a never-sibling entry: the two
	// encode identically, which is what keeps legacy digests verifiable.
	plain := en
	plain.Info = en.Info.Clone()
	plain.Info.Siblings = nil
	if stripped.Hash() != plain.Hash() {
		t.Fatal("stripped entry hashes differently from a sibling-free one")
	}
}

// TestNeighborhoodAlwaysLegacyForm: the legacy full exchange must never
// emit extended entries, whatever the storage holds — pre-identity peers
// decode it.
func TestNeighborhoodAlwaysLegacyForm(t *testing.T) {
	en := NeighborEntry{Info: siblingInfo(), QualitySum: 240, QualityMin: 240}
	got := roundTrip(t, &Neighborhood{Entries: []NeighborEntry{en}}).(*Neighborhood)
	if len(got.Entries[0].Info.Siblings) != 0 {
		t.Fatalf("legacy neighbourhood carried siblings: %v", got.Entries[0].Info.Siblings)
	}
}

// TestSyncRequestFlagCompat: the capability byte is a trailing optional —
// a 16-byte pre-identity request decodes with Flags 0, a zero-flag request
// encodes to exactly those 16 bytes, and a flagged request round-trips.
// The retired scope bytes after Flags are not: a 19-byte scoped request is
// malformed.
func TestSyncRequestFlagCompat(t *testing.T) {
	var legacy bytes.Buffer
	if err := Write(&legacy, &NeighborhoodSyncRequest{Epoch: 7, Gen: 9}); err != nil {
		t.Fatal(err)
	}
	if got := len(legacy.Bytes()) - 5; got != 16 {
		t.Fatalf("zero-flag request payload = %d bytes, want the legacy 16", got)
	}
	m, err := Read(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	req := m.(*NeighborhoodSyncRequest)
	if req.Epoch != 7 || req.Gen != 9 || req.Flags != 0 {
		t.Fatalf("legacy request decoded as %+v", req)
	}

	got := roundTrip(t, &NeighborhoodSyncRequest{Epoch: 7, Gen: 9, Flags: SyncFlagSiblings}).(*NeighborhoodSyncRequest)
	if got.Flags != SyncFlagSiblings {
		t.Fatalf("flags lost: %+v", got)
	}

	scoped := []byte{byte(CmdNeighborhoodSyncRequest), 0, 0, 0, 19}
	scoped = binary.BigEndian.AppendUint64(scoped, 7)
	scoped = binary.BigEndian.AppendUint64(scoped, 9)
	scoped = append(scoped, SyncFlagSiblings, 1, 0) // flags, scope, cell
	if m, err := Read(bytes.NewReader(scoped)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("scoped request: got %v, %v; want ErrMalformed", m, err)
	}
}

// TestExtendedEntryRejectsEmptySiblings: the extended form exists only to
// carry siblings; an empty list would re-encode legacy and break the
// canonical-encoding invariant, so the decoder rejects it.
func TestExtendedEntryRejectsEmptySiblings(t *testing.T) {
	e := &encoder{}
	e.u16(extMarker)
	e.u8(extVersion)
	e.info(device.Info{Name: "x", Addr: btA("02:70:68:00:00:01")})
	e.addrs(nil)
	d := &decoder{buf: e.buf}
	d.infoAny()
	if d.err == nil {
		t.Fatal("extended descriptor without siblings accepted")
	}
}
