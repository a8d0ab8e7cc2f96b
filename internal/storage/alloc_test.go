package storage

import (
	"fmt"
	"testing"

	"peerhood/internal/device"
	"peerhood/internal/phproto"
	"peerhood/internal/race"
)

// Allocation budgets for the merge hot paths. These are contracts, not
// observations: every discovery round funnels each neighbour's full table
// (or delta) through these functions, so per-row garbage here scales with
// neighbourhood density times round rate. The steady state — a neighbour
// re-reporting rows we already hold — must not allocate at all: the
// reported-set scratch is reused, the route re-sort is an in-place
// insertion sort, a row whose transmitted fields did not change is
// compared with its cached encoding rather than re-encoded, and an
// unchanged descriptor skips the identity reindex.
const (
	// mergeDeltaBudget: re-merging a delta whose rows we already hold.
	mergeDeltaBudget = 0
	// mergeFullBudget: re-merging a full table we already hold (the
	// per-round AnalyzeNeighbourhoodDevices pass).
	mergeFullBudget = 0
)

func allocProbeEntries(n int) []phproto.NeighborEntry {
	out := make([]phproto.NeighborEntry, n)
	for i := range out {
		out[i] = phproto.NeighborEntry{
			Info: device.Info{
				Name:     fmt.Sprintf("dev%d", i),
				Addr:     device.Addr{Tech: device.TechBluetooth, MAC: fmt.Sprintf("m%03d", i)},
				Mobility: device.Dynamic,
			},
			Jumps:      uint8(i % 4),
			QualitySum: uint32(240 + i),
			QualityMin: uint8(231),
		}
	}
	return out
}

// TestMergeNeighborhoodDeltaAllocFree pins the satellite requirement:
// folding in a delta whose rows match the stored state performs no
// allocations.
func TestMergeNeighborhoodDeltaAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	st := New(Config{})
	bridge := device.Addr{Tech: device.TechBluetooth, MAC: "bridge"}
	st.UpsertDirect(device.Info{Name: "bridge", Addr: bridge, Mobility: device.Static}, 240)
	rows := allocProbeEntries(8)
	st.MergeNeighborhoodDelta(bridge, 240, rows, nil) // warm: rows stored
	allocs := testing.AllocsPerRun(200, func() {
		st.MergeNeighborhoodDelta(bridge, 240, rows, nil)
	})
	if allocs > mergeDeltaBudget {
		t.Fatalf("MergeNeighborhoodDelta steady state = %.1f allocs/op, budget %d", allocs, mergeDeltaBudget)
	}
}

// TestMergeNeighborhoodAllocFree pins the full-table sweep the same way:
// the reported-set scratch and the stopped-reporting sweep must not
// allocate when nothing changed.
func TestMergeNeighborhoodAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	st := New(Config{})
	st.AddSelfAddr(device.Addr{Tech: device.TechBluetooth, MAC: "self"})
	bridge := device.Addr{Tech: device.TechBluetooth, MAC: "bridge"}
	st.UpsertDirect(device.Info{Name: "bridge", Addr: bridge, Mobility: device.Static}, 240)
	rows := allocProbeEntries(64)
	st.MergeNeighborhood(bridge, 240, rows) // warm
	allocs := testing.AllocsPerRun(100, func() {
		st.MergeNeighborhood(bridge, 240, rows)
	})
	if allocs > mergeFullBudget {
		t.Fatalf("MergeNeighborhood steady state = %.1f allocs/op, budget %d", allocs, mergeFullBudget)
	}
}

// TestEntryFreeListRecycles drives churn — a device removed and re-learned
// — and checks the table stays correct (the free list must hand back fully
// zeroed entries; a leaked route or identity would surface here).
func TestEntryFreeListRecycles(t *testing.T) {
	st := New(Config{})
	bridge := device.Addr{Tech: device.TechBluetooth, MAC: "bridge"}
	st.UpsertDirect(device.Info{Name: "bridge", Addr: bridge, Mobility: device.Static}, 240)
	rows := allocProbeEntries(16)
	for round := 0; round < 50; round++ {
		st.MergeNeighborhood(bridge, 240, rows)
		if got := st.Len(); got != 17 {
			t.Fatalf("round %d: Len = %d, want 17", round, got)
		}
		for _, r := range rows {
			e, ok := st.Lookup(r.Info.Addr)
			if !ok || len(e.Routes) != 1 || e.Routes[0].Bridge != bridge {
				t.Fatalf("round %d: %v entry corrupt: %+v ok=%v", round, r.Info.Addr, e, ok)
			}
			if e.Info.Name != r.Info.Name || e.Identity() == "" {
				t.Fatalf("round %d: %v descriptor corrupt: %+v", round, r.Info.Addr, e.Info)
			}
		}
		// Empty report: the bridge lost everything; all 16 rows removed.
		st.MergeNeighborhood(bridge, 240, nil)
		if got := st.Len(); got != 1 {
			t.Fatalf("round %d: after sweep Len = %d, want 1", round, got)
		}
	}
}
