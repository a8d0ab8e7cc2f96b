package discovery

import (
	"fmt"
	"testing"

	"peerhood/internal/device"
	"peerhood/internal/plugin"
	"peerhood/internal/storage"
)

// populatedPeerStore builds an n-device peer table with varied link
// qualities.
func populatedPeerStore(n int) *storage.Storage {
	s := newPeerStore()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("dev%03d", i)
		s.UpsertDirect(device.Info{Name: name, Addr: bt(name)}, 200+i%56)
	}
	return s
}

// BenchmarkDiscoverySyncRound measures the steady-state per-round sync
// traffic of the flat versioned exchange against a 60-device peer,
// reporting the wire bytes one round moves as sync-B/round. The sub-benchmark
// name is kept so CI's allocation budget for "DiscoverySyncRound/flat"
// keeps matching.
func BenchmarkDiscoverySyncRound(b *testing.B) {
	b.Run("flat", func(b *testing.B) {
		fp, _, d := newFakeSetup(false)
		peerStore := populatedPeerStore(60)
		fp.responses = []plugin.InquiryResult{{Addr: bt("B"), Quality: 240}}
		fp.fetch["B"] = fetchScript{info: device.Info{Name: "B", Addr: bt("B")}, store: peerStore}
		first := d.RunRound() // first contact pays the full table
		if first.FetchErrors != 0 {
			b.Fatalf("first contact failed: %+v", first)
		}
		var last int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep := d.RunRound()
			if rep.FetchErrors != 0 {
				b.Fatalf("round failed: %+v", rep)
			}
			last = rep.SyncBytes
		}
		b.StopTimer()
		b.ReportMetric(float64(last), "sync-B/round")
	})
}
