package campaign

import (
	"testing"
	"time"
)

// BenchmarkCampaignPoint is the per-run cost floor: one pair-topology
// point, 20 ms simulated with wander. A plain `go test -bench` handle;
// the recorded figures are the benchmark's campaign.point_ms.* and
// campaign.jobs2_speedup (make benchmark-trace).
func BenchmarkCampaignPoint(b *testing.B) {
	g := Grid{
		Name:      "bench",
		Topos:     []string{"pair"},
		Seeds:     []uint64{1},
		Durations: []Duration{Duration(20 * time.Millisecond)},
		Wander:    true,
	}
	p := g.Expand()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := runPoint(p, "")
		if res.Err != "" {
			b.Fatal(res.Err)
		}
	}
}
