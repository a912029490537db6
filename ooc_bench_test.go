// BenchmarkOutOfCoreScan measures the buffer pool's paging behaviour
// under budget pressure: the same exhaustive scan over a disk-backed
// table with a pool sized to hold the whole decoded table, half of it,
// and a tenth of it. "blocks-loaded/op" (demand misses, one extent read
// each), "segments-read/op" (demand plus read-ahead segments) and
// "MB-read/op" are the physical cost the budget forces back onto the
// disk; with a full-size pool the steady state is all hits and all
// three drop to ~0. hit-% counts read-ahead blocks as hits, so only
// segments-read/op and MB-read/op compare physical reads across pool
// designs. CI records the trajectory as BENCH_13.json.
//
//	go test . -run '^$' -bench BenchmarkOutOfCoreScan -benchtime 3x
package fastframe

import (
	"context"
	"testing"
)

func BenchmarkOutOfCoreScan(b *testing.B) {
	const rows = 500_000
	tab, err := GenerateFlights(rows, 7)
	if err != nil {
		b.Fatal(err)
	}
	path := writeTempTable(b, tab)
	// Decoded working set of the benchmark query: the scan touches the
	// aggregate float column (8 B/row) and the grouping code column
	// (4 B/row); budgets are fractions of that, so "full" caches the
	// whole scan and "10pct" must re-read 90% of it every circulation.
	const decodedBytes = int64(rows) * (8 + 4)

	budgets := []struct {
		name string
		frac float64
	}{
		{"full", 1.0},
		{"half", 0.5},
		{"10pct", 0.1},
	}
	ctx := context.Background()
	q := Avg("DepDelay").GroupBy("Airline") // exhaustive: every block, every op
	opts := []Option{WithStrategy(ScanStrategy), WithRoundRows(50_000), WithSeed(7)}

	for _, tc := range budgets {
		b.Run("pool="+tc.name, func(b *testing.B) {
			pool := NewBufferPool(int64(float64(decodedBytes) * tc.frac))
			defer pool.Close()
			ooc, err := OpenTable(path, pool)
			if err != nil {
				b.Fatal(err)
			}
			defer ooc.Close()
			// One warm-up pass so the full-budget case measures its
			// steady state (all hits) rather than the cold fill.
			if _, err := ooc.Query(ctx, q, opts...); err != nil {
				b.Fatal(err)
			}
			s0 := ooc.PoolStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ooc.Query(ctx, q, opts...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s1 := ooc.PoolStats()
			n := float64(b.N)
			loads := float64(s1.Misses - s0.Misses)
			hits := float64(s1.Hits - s0.Hits)
			b.ReportMetric(loads/n, "blocks-loaded/op")
			b.ReportMetric(float64(s1.Misses+s1.Prefetched-s0.Misses-s0.Prefetched)/n, "segments-read/op")
			b.ReportMetric(float64(s1.BytesRead-s0.BytesRead)/n/1e6, "MB-read/op")
			b.ReportMetric(float64(s1.Evictions-s0.Evictions)/n, "evictions/op")
			if hits+loads > 0 {
				b.ReportMetric(100*hits/(hits+loads), "hit-%")
			}
		})
	}
}
