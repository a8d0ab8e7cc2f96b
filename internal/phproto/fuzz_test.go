package phproto

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"peerhood/internal/device"
)

// fuzzSeedMessages covers every frame type, weighted towards the
// structured payloads (NEIGHBORHOOD_SYNC, EVENT, neighbourhood tables)
// where decoder bugs would hide. The same encodings are checked in under
// testdata/fuzz/FuzzDecode as the committed seed corpus.
func fuzzSeedMessages() []Message {
	info := device.Info{
		Name:     "pda",
		Addr:     device.Addr{Tech: device.TechBluetooth, MAC: "02:70:68:00:00:01"},
		Checksum: 0xdeadbeef,
		Mobility: device.Dynamic,
		Services: []device.ServiceInfo{{Name: "echo", Attr: "v=1", Port: 4001}},
	}
	entry := NeighborEntry{
		Info:       info,
		Jumps:      2,
		Bridge:     device.Addr{Tech: device.TechBluetooth, MAC: "02:70:68:00:00:02"},
		QualitySum: 460,
		QualityMin: 231,
	}
	dual := info
	dual.Siblings = []device.Addr{
		{Tech: device.TechWLAN, MAC: "02:70:68:00:00:08"},
		{Tech: device.TechGPRS, MAC: "02:70:68:00:00:09"},
	}
	dualEntry := entry
	dualEntry.Info = dual
	return []Message{
		&InfoRequest{Kind: InfoNeighborhood},
		&InfoRequest{Kind: InfoDeviceEx},
		&DeviceInfo{Info: info},
		&DeviceInfo{Info: dual},
		&NeighborhoodSyncRequest{Epoch: 11, Gen: 42, Flags: SyncFlagSiblings},
		FullSync(12, 45, []NeighborEntry{dualEntry, entry}),
		&ServiceList{Services: info.Services},
		&Neighborhood{Entries: []NeighborEntry{entry}},
		&HelloNew{ServicePort: 4001, ServiceName: "echo", ConnID: 7, HasClient: true, Client: info},
		&HelloBridge{Dest: entry.Bridge, ServiceName: "echo", ServicePort: 4001, ConnID: 7, TTL: 3, Reconnect: true},
		&HelloReconnect{ConnID: 7},
		&HelloNew{ServicePort: 4001, ServiceName: "echo", ConnID: 8, Flags: HelloFlagContinuity, Token: 0xabad1dea},
		&HelloBridge{Dest: entry.Bridge, ServiceName: "echo", ServicePort: 4001, ConnID: 8, TTL: 3, Flags: HelloFlagResume, Token: 0xabad1dea, RecvSeq: 5},
		&HelloResume{ConnID: 8, Token: 0xabad1dea, RecvSeq: 5},
		&ResumeAck{OK: true, RecvSeq: 2},
		&Ack{OK: false, Reason: "no route"},
		&Data{Seq: 9, Payload: []byte("task package")},
		&NeighborhoodSyncRequest{Epoch: 11, Gen: 42},
		&NeighborhoodSync{
			Full:        false,
			Epoch:       11,
			FromGen:     42,
			ToGen:       44,
			Entries:     []NeighborEntry{entry},
			Tombstones:  []device.Addr{{Tech: device.TechBluetooth, MAC: "02:70:68:00:00:03"}},
			DigestCount: 5,
			DigestHash:  0x1234567890abcdef,
		},
		FullSync(11, 44, []NeighborEntry{entry}),
		&DigestInfo{Epoch: 11, Gen: 44, Entries: 5, Hash: 0xfeed},
		&EventSubscribe{Mask: 0b10110},
		&EventNotice{
			Seq: 88, UnixNanos: 1_700_000_000_000_000_000, Type: 3,
			Addr: entry.Bridge, Quality: 227, TimeToThreshold: 4 * time.Second,
			Detail: "slope=-1.2/s",
		},
	}
}

// FuzzDecode fuzzes the frame decoder with raw wire bytes: any input may
// error, but it must never panic, never over-allocate past the frame
// caps, and anything that decodes must survive an encode/decode round
// trip unchanged (the decoder accepts only canonical encodings, since
// Read rejects trailing bytes).
func FuzzDecode(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			f.Fatalf("seed encode %v: %v", m.Cmd(), err)
		}
		f.Add(buf.Bytes())
	}
	// A few malformed shapes: truncated header, oversized declared length,
	// unknown command, trailing garbage.
	f.Add([]byte{byte(CmdAck)})
	f.Add([]byte{byte(CmdNeighborhood), 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x77, 0, 0, 0, 0})
	f.Add([]byte{byte(CmdHelloReconnect), 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0xaa})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("re-encoding decoded %v: %v", m.Cmd(), err)
		}
		var enc Encoder
		if frame, err := enc.Encode(m); err != nil || !bytes.Equal(frame, buf.Bytes()) {
			t.Fatalf("Encoder.Encode diverges from Write for %v (err %v)", m.Cmd(), err)
		}
		m2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decoding %v: %v", m.Cmd(), err)
		}
		// A sync row's hash, taken over the bytes it arrived in, is the
		// hash of its canonical re-encoding: fetchers verify digests with it.
		if ns, ok := m.(*NeighborhoodSync); ok {
			for i, en := range ns.Entries {
				if ns.EntryHash(i) != en.Hash() {
					t.Fatalf("entry %d: received-bytes hash %x != Hash() %x", i, ns.EntryHash(i), en.Hash())
				}
			}
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed %v:\n%#v\n%#v", m.Cmd(), m, m2)
		}
	})
}
