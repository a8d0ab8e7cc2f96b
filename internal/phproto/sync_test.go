package phproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"peerhood/internal/device"
)

func sampleEntry(mac string, jumps uint8) NeighborEntry {
	return NeighborEntry{
		Info: device.Info{
			Name:     "dev-" + mac,
			Addr:     device.Addr{Tech: device.TechBluetooth, MAC: mac},
			Mobility: device.Dynamic,
			Services: []device.ServiceInfo{{Name: "echo", Port: 11}},
		},
		Jumps:      jumps,
		Bridge:     device.Addr{Tech: device.TechBluetooth, MAC: "bridge"},
		QualitySum: 480,
		QualityMin: 233,
	}
}

func TestSyncMessagesRoundTrip(t *testing.T) {
	msgs := []Message{
		&NeighborhoodSyncRequest{},
		&NeighborhoodSyncRequest{Epoch: 0xDEAD, Gen: 42},
		&NeighborhoodSync{
			Full:        true,
			Epoch:       7,
			ToGen:       99,
			Entries:     []NeighborEntry{sampleEntry("aa", 0), sampleEntry("bb", 2)},
			DigestCount: 2,
			DigestHash:  0x1234,
		},
		&NeighborhoodSync{
			Epoch:       7,
			FromGen:     90,
			ToGen:       99,
			Entries:     []NeighborEntry{sampleEntry("aa", 1)},
			Tombstones:  []device.Addr{{Tech: device.TechBluetooth, MAC: "gone"}},
			DigestCount: 12,
			DigestHash:  0xFEED,
		},
		&NeighborhoodSync{Epoch: 1}, // empty delta: nothing changed
		&DigestInfo{Epoch: 3, Gen: 17, Entries: 4, Hash: 0xABCD},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if ns, ok := got.(*NeighborhoodSync); ok {
			// Decoding records each row's hash over its received bytes.
			for i, en := range ns.Entries {
				if ns.EntryHash(i) != en.Hash() {
					t.Errorf("entry %d: decoded hash %x, Hash() %x", i, ns.EntryHash(i), en.Hash())
				}
			}
			ns.hashes = nil
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v round trip:\n sent %#v\n got  %#v", m.Cmd(), m, got)
		}
	}
}

func TestSyncOversizeTombstoneCountRejected(t *testing.T) {
	// full=0, epoch+fromGen+toGen, 0 entries, then a tombstone count over
	// MaxEntries with no body.
	payload := []byte{0}
	payload = append(payload, make([]byte, 24)...) // three u64s
	payload = append(payload, 0, 0)                // zero entries
	payload = binary.BigEndian.AppendUint16(payload, 0xFFFF)
	var hdr [5]byte
	hdr[0] = byte(CmdNeighborhoodSync)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	_, err := Read(bytes.NewReader(append(hdr[:], payload...)))
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestEntryHashMatchesEncoding(t *testing.T) {
	a := sampleEntry("aa", 0)
	b := sampleEntry("aa", 0)
	if a.Hash() != b.Hash() {
		t.Fatal("equal entries hash differently")
	}
	b.QualitySum++
	if a.Hash() == b.Hash() {
		t.Fatal("distinct entries hash equal")
	}
	// Fields outside the wire encoding do not exist on NeighborEntry, so
	// hashing twice must be stable.
	if a.Hash() != a.Hash() {
		t.Fatal("hash not deterministic")
	}
}

func TestDigestOfIsOrderIndependent(t *testing.T) {
	e1, e2, e3 := sampleEntry("aa", 0), sampleEntry("bb", 1), sampleEntry("cc", 2)
	c1, h1 := DigestOf([]NeighborEntry{e1, e2, e3})
	c2, h2 := DigestOf([]NeighborEntry{e3, e1, e2})
	if c1 != c2 || h1 != h2 {
		t.Fatalf("digest order dependent: (%d,%x) vs (%d,%x)", c1, h1, c2, h2)
	}
	if c1 != 3 {
		t.Fatalf("count = %d", c1)
	}
	// Incremental maintenance: removing an entry XORs it out.
	_, h12 := DigestOf([]NeighborEntry{e1, e2})
	if h1^e3.Hash() != h12 {
		t.Fatal("digest is not incrementally maintainable by XOR")
	}
}

func TestFullSyncDigestCoversTransmittedEntries(t *testing.T) {
	entries := []NeighborEntry{sampleEntry("aa", 0), sampleEntry("bb", 1)}
	m := FullSync(5, 77, entries)
	count, hash := DigestOf(entries)
	if !m.Full || m.Epoch != 5 || m.ToGen != 77 || m.DigestCount != count || m.DigestHash != hash {
		t.Fatalf("FullSync = %+v", m)
	}
}

// TestSyncRowsEncodeLikeEntries: a message carrying pre-encoded Rows must
// put exactly the bytes on the wire that the same message carrying the
// rendered Entries does, and decode back to those Entries.
func TestSyncRowsEncodeLikeEntries(t *testing.T) {
	entries := []NeighborEntry{sampleEntry("aa", 0), sampleEntry("bb", 2)}
	entries[1].Info.Siblings = []device.Addr{{Tech: device.TechWLAN, MAC: "bb"}}
	var rows Rows
	for _, en := range entries {
		row := AppendEntry(nil, en)
		if HashRow(row) != en.Hash() {
			t.Fatalf("HashRow(AppendEntry(%v)) != Hash()", en.Info.Addr)
		}
		rows.Append(row)
	}
	fromEntries := &NeighborhoodSync{Epoch: 7, FromGen: 90, ToGen: 99, Entries: entries, DigestCount: 2, DigestHash: 0xFEED}
	fromRows := &NeighborhoodSync{Epoch: 7, FromGen: 90, ToGen: 99, Rows: rows, DigestCount: 2, DigestHash: 0xFEED}
	var a, b bytes.Buffer
	if err := Write(&a, fromEntries); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, fromRows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("rows frame differs from entries frame:\n%x\n%x", b.Bytes(), a.Bytes())
	}
	got, err := ReadExpect[*NeighborhoodSync](&b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Entries, entries) {
		t.Fatalf("decoded %+v, want %+v", got.Entries, entries)
	}
}
