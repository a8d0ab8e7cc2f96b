// Benchmarks: one per reproduced table/figure (running the experiment
// harness end to end on the simulated substrate) plus microbenchmarks of
// the hot protocol paths. Regenerate the thesis' numbers with
// cmd/experiments; these benches track the cost of regenerating them.
package peerhood_test

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"peerhood"
	"peerhood/internal/device"
	"peerhood/internal/experiments"
	"peerhood/internal/gnutella"
	"peerhood/internal/migration"
	"peerhood/internal/phproto"
	"peerhood/internal/rng"
	"peerhood/internal/storage"
)

// benchExperiment runs one experiment per iteration in quick mode.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Run(id, experiments.Config{
			Seed:      int64(i + 1),
			TimeScale: 2000,
			Quick:     true,
		})
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
}

// Experiment benches — one per reproduced table/figure (DESIGN.md §4).

func BenchmarkT1MobilityTable(b *testing.B)          { benchExperiment(b, "T1") }
func BenchmarkF33DiscoveryExclusion(b *testing.B)    { benchExperiment(b, "F3.3") }
func BenchmarkF36StorageTable(b *testing.B)          { benchExperiment(b, "F3.6") }
func BenchmarkF39QualityEquity(b *testing.B)         { benchExperiment(b, "F3.9") }
func BenchmarkF310DiscoveryDelay(b *testing.B)       { benchExperiment(b, "F3.10") }
func BenchmarkG1GnutellaVsPeerhood(b *testing.B)     { benchExperiment(b, "G1") }
func BenchmarkE1BridgeInterconnection(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2RoutingHandover(b *testing.B)        { benchExperiment(b, "E2") }
func BenchmarkE3CorridorWalk(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkE4ResultRouting(b *testing.B)          { benchExperiment(b, "E4") }
func BenchmarkF61CoverageAmplification(b *testing.B) { benchExperiment(b, "F6.1") }
func BenchmarkA1RouteAblation(b *testing.B)          { benchExperiment(b, "A1") }

// BenchmarkS1CityBlock runs the scale scenario in quick mode (250 nodes);
// BenchmarkS1CityBlockFull is the real thing — 1,000 mobile nodes, tens of
// seconds per iteration — for tracking the scale harness itself.

func BenchmarkS1CityBlock(b *testing.B) { benchExperiment(b, "S1") }

// BenchmarkS3CommuterCorridor runs the predictive-vs-reactive handover
// corridor in quick mode (its internal time compression is clamped, so
// most of an iteration is scaled-clock waiting, not CPU).
func BenchmarkS3CommuterCorridor(b *testing.B) { benchExperiment(b, "S3") }

// BenchmarkS4UrbanBlackout replays the scripted fault-plane corridor (two
// blackouts, interference, relay crash/restart) in both handover modes on
// a manual clock — pure compute, no wall-clock waiting.
func BenchmarkS4UrbanBlackout(b *testing.B) { benchExperiment(b, "S4") }

// BenchmarkS2DensePlaza runs the delta-vs-full sync scenario in quick mode
// (40 nodes, two churn levels).
func BenchmarkS2DensePlaza(b *testing.B) { benchExperiment(b, "S2") }

func BenchmarkS1CityBlockFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("S1", experiments.Config{Seed: int64(i + 1), TimeScale: 2000}); err != nil {
			b.Fatalf("experiment S1: %v", err)
		}
	}
}

// Microbenchmarks — hot paths of the protocol stack.

func BenchmarkStorageMergeNeighborhood(b *testing.B) {
	st := storage.New(storage.Config{})
	st.AddSelfAddr(device.Addr{Tech: device.TechBluetooth, MAC: "self"})
	bridge := device.Addr{Tech: device.TechBluetooth, MAC: "bridge"}
	st.UpsertDirect(device.Info{Name: "bridge", Addr: bridge, Mobility: device.Static}, 240)

	entries := make([]phproto.NeighborEntry, 64)
	for i := range entries {
		entries[i] = phproto.NeighborEntry{
			Info: device.Info{
				Name: fmt.Sprintf("dev%d", i),
				Addr: device.Addr{Tech: device.TechBluetooth, MAC: fmt.Sprintf("m%03d", i)},
			},
			Jumps:      uint8(i % 4),
			QualitySum: uint32(200 + i),
			QualityMin: uint8(200 + i%50),
		}
	}
	st.MergeNeighborhood(bridge, 240, entries) // warm: scratch, arena, cached rows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.MergeNeighborhood(bridge, 240, entries)
	}
}

func BenchmarkStorageWireEntries(b *testing.B) {
	st := storage.New(storage.Config{})
	for i := 0; i < 128; i++ {
		st.UpsertDirect(device.Info{
			Name: fmt.Sprintf("dev%d", i),
			Addr: device.Addr{Tech: device.TechBluetooth, MAC: fmt.Sprintf("m%03d", i)},
		}, 200+i%55)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := st.WireEntries(); len(got) != 128 {
			b.Fatal("missing entries")
		}
	}
}

// BenchmarkStorageSyncResponse measures the responder's answer to a
// versioned fetch from a 128-entry storage: a DELTA of the four rows that
// changed since the fetcher's generation, and the FULL table a first
// contact gets. Both copy cached row bytes; neither renders an entry.
func BenchmarkStorageSyncResponse(b *testing.B) {
	st := storage.New(storage.Config{})
	for i := 0; i < 128; i++ {
		st.UpsertDirect(device.Info{
			Name: fmt.Sprintf("dev%d", i),
			Addr: device.Addr{Tech: device.TechBluetooth, MAC: fmt.Sprintf("m%03d", i)},
		}, 200+i%55)
	}
	since := st.Digest().Gen
	for i := 0; i < 4; i++ { // four rows change after the peer's last sync
		st.UpsertDirect(device.Info{
			Name: fmt.Sprintf("dev%d", i),
			Addr: device.Addr{Tech: device.TechBluetooth, MAC: fmt.Sprintf("m%03d", i)},
		}, 190)
	}
	epoch := st.Digest().Epoch
	for _, c := range []struct {
		name  string
		epoch uint64
		rows  int
	}{{"delta", epoch, 4}, {"full", 0, 128}} {
		b.Run(c.name, func(b *testing.B) {
			st.SyncResponse(c.epoch, since, true) // warm the responder's scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp := st.SyncResponse(c.epoch, since, true)
				if resp.Rows.Len() != c.rows {
					b.Fatalf("%s answer carries %d rows, want %d", c.name, resp.Rows.Len(), c.rows)
				}
			}
		})
	}
}

func BenchmarkProtoNeighborhoodRoundTrip(b *testing.B) {
	msg := &phproto.Neighborhood{}
	for i := 0; i < 64; i++ {
		msg.Entries = append(msg.Entries, phproto.NeighborEntry{
			Info: device.Info{
				Name:     fmt.Sprintf("device-%d", i),
				Addr:     device.Addr{Tech: device.TechBluetooth, MAC: fmt.Sprintf("02:70:68:00:00:%02x", i)},
				Mobility: device.Hybrid,
				Services: []device.ServiceInfo{{Name: "svc", Port: 10}},
			},
			Jumps:      uint8(i % 5),
			QualitySum: uint32(230 * (i%5 + 1)),
			QualityMin: 230,
		})
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := phproto.Write(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := phproto.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Cap()))
}

func BenchmarkMigrationRecordRoundTrip(b *testing.B) {
	payload := make([]byte, 4096)
	var buf bytes.Buffer
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := migration.WriteRecord(&buf, migration.Record{
			TaskID: 7, Seq: uint32(i), Kind: migration.KindData, Payload: payload,
		}); err != nil {
			b.Fatal(err)
		}
		rr := migration.NewRecordReader(&buf)
		if _, err := rr.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGnutellaFlood(b *testing.B) {
	g := gnutella.RandomConnected(200, 6, rng.New(1))
	holders := map[int]bool{150: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gnutella.Flood(g, i%200, 7, holders)
	}
}

// BenchmarkDiscoveryRoundInstant measures one node's discovery round at
// constant crowd density (6 m lattice spacing, ~8 in-range neighbours) and
// growing world size, for the grid-indexed world and the original
// full-scan world. Per-node cost staying flat as nodes grow means a full
// round over all N nodes is O(N) — sub-quadratic — where the full scan's
// per-node cost grows with N, making its round O(N^2).
func BenchmarkDiscoveryRoundInstant(b *testing.B) {
	for _, mode := range []struct {
		name   string
		linear bool
	}{{"grid", false}, {"fullscan", true}} {
		for _, count := range []int{8, 64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/nodes=%d", mode.name, count), func(b *testing.B) {
				w := peerhood.NewWorld(peerhood.WorldConfig{Seed: 1, Instant: true, LinearScan: mode.linear})
				defer w.Close()
				// Unlimited bandwidth: the warm-up round's info fetches
				// must not sleep on simulated transfer time.
				for _, tech := range device.Techs() {
					p := w.Sim().Params(tech)
					p.Bandwidth = 0
					w.Sim().SetParams(tech, p)
				}
				side := 1
				for side*side < count {
					side++
				}
				nodes := make([]*peerhood.Node, count)
				for i := range nodes {
					n, err := w.NewNode(peerhood.NodeConfig{
						Name:     fmt.Sprintf("n%d", i),
						Position: peerhood.Pt(float64(i%side)*6, float64(i/side)*6),
						// Bridges off and service lists cached: the scan
						// and neighbourhood exchange are what scale with
						// world size, so they are what this measures.
						DisableBridge:        true,
						ServiceCheckInterval: time.Hour,
					})
					if err != nil {
						b.Fatal(err)
					}
					nodes[i] = n
				}
				w.RunDiscoveryRounds(1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nodes[i%len(nodes)].RunDiscoveryRound()
				}
			})
		}
	}
}

func BenchmarkBridgeRelayThroughput(b *testing.B) {
	w := peerhood.NewWorld(peerhood.WorldConfig{Seed: 2, Instant: true})
	defer w.Close()
	server, err := w.NewNode(peerhood.NodeConfig{Name: "server", Position: peerhood.Pt(16, 0)})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.NewNode(peerhood.NodeConfig{Name: "bridge", Position: peerhood.Pt(8, 0)}); err != nil {
		b.Fatal(err)
	}
	client, err := w.NewNode(peerhood.NodeConfig{Name: "client", Position: peerhood.Pt(0, 0)})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := server.RegisterService("echo", "", func(c *peerhood.Connection, m peerhood.ConnectionMeta) {
		defer c.Close()
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
	w.RunDiscoveryRounds(3)

	conn, err := client.Connect(server.Addr(), "echo")
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, 1024)
	buf := make([]byte, 2048)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
		read := 0
		for read < len(payload) {
			n, err := conn.Read(buf)
			if err != nil {
				b.Fatal(err)
			}
			read += n
		}
	}
}

func BenchmarkConnectDirectInstant(b *testing.B) {
	w := peerhood.NewWorld(peerhood.WorldConfig{Seed: 3, Instant: true})
	defer w.Close()
	server, err := w.NewNode(peerhood.NodeConfig{Name: "server", Position: peerhood.Pt(3, 0)})
	if err != nil {
		b.Fatal(err)
	}
	client, err := w.NewNode(peerhood.NodeConfig{Name: "client", Position: peerhood.Pt(0, 0)})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := server.RegisterService("noop", "", func(c *peerhood.Connection, m peerhood.ConnectionMeta) {
		_ = c.Close()
	}); err != nil {
		b.Fatal(err)
	}
	w.RunDiscoveryRounds(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := client.Connect(server.Addr(), "noop")
		if err != nil {
			b.Fatal(err)
		}
		_ = conn.Close()
	}
}

// BenchmarkS6Metropolis steps the sharded constant-density city (S6) and
// reports the per-node superstep cost at each scale. The event-driven
// scheduler makes one superstep cost O(active events) rather than O(N),
// so with density held constant the ns/node-step metric should stay flat
// across the scale sweep — that flatness is the scaling curve CI records
// in the benchmark trajectory. Each scale also reports heap-B/node: the
// live heap the stepped world retains per node (measured after a forced
// GC), which the memory-flat work keeps flat from 10k to the million-node
// tier. The 1M tier joins the sweep only when PH_S6_1M=1 — it costs
// minutes and ~1 GB — and CI gates both metrics on it via benchjson's
// -flatgate.
func BenchmarkS6Metropolis(b *testing.B) {
	scales := []int{1000, 10000, 100000}
	if os.Getenv(experiments.MetropolisMillionEnv) == "1" {
		scales = append(scales, 1000000)
	}
	for _, count := range scales {
		b.Run(fmt.Sprintf("nodes=%d", count), func(b *testing.B) {
			runtime.GC()
			var m0 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sw, err := experiments.MetropolisWorld(42, count)
			if err != nil {
				b.Fatal(err)
			}
			defer sw.Close()
			// Warm to steady state: the first supersteps pay placement, the
			// full 10 s spread of discovery phases, and the growth of the
			// per-shard arenas to their high-water marks (after which a step
			// allocates almost nothing). Timing those start-up steps would
			// measure arena growth and the GC assists it triggers — at 1M
			// nodes that is hundreds of MB — instead of the steady per-step
			// cost the flatness claim is about; the forced GC clears the
			// warm-up garbage so the timed steps start from a settled heap.
			for i := 0; i < 12; i++ {
				sw.Step()
			}
			runtime.GC()
			// One op is a full 10-superstep discovery cycle: with
			// -benchtime=1x a single superstep is one sample, too noisy to
			// gate a 25% flatness bound on — a stray GC cycle or scheduler
			// blip doubles it, and per-step load swings with the discovery
			// phase (DiscoveryPhase correlates with the dweller/through-
			// traffic split, so steps alternate dense and sparse candidate
			// sets). Ten steps cover every phase once, making each op the
			// same workload at every scale.
			const stepsPerOp = 10
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < stepsPerOp; s++ {
					sw.Step()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*stepsPerOp*int64(count)), "ns/node-step")
			runtime.GC()
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			if m1.HeapAlloc > m0.HeapAlloc {
				b.ReportMetric(float64(m1.HeapAlloc-m0.HeapAlloc)/float64(count), "heap-B/node")
			}
		})
	}
}

// BenchmarkS8RushHour runs the quick-mode rush-hour soak (3 real daemons
// over tcpnet loopback, 48 concurrent clients) and reports its throughput
// and tail latency as custom metrics. This is the macro-benchmark the PR 7
// allocation flattening protects: dials cross phproto hello/ack, streams
// cross the engine, and background discovery crosses the storage merge.
func BenchmarkS8RushHour(b *testing.B) {
	var last experiments.RushHourOutcome
	for i := 0; i < b.N; i++ {
		o, err := experiments.RushHourSoak(experiments.Config{Seed: int64(i + 1), Quick: true})
		if err != nil {
			b.Fatalf("experiment S8: %v", err)
		}
		last = o
	}
	b.ReportMetric(float64(last.Conns)/last.Elapsed.Seconds(), "conns/sec")
	b.ReportMetric(float64(last.Bytes)/(1<<20)/last.Elapsed.Seconds(), "MiB/s")
	b.ReportMetric(float64(last.DialP99.Microseconds()), "dial-p99-µs")
	b.ReportMetric(float64(last.StreamP99.Microseconds()), "stream-p99-µs")
}
