package exec

import (
	"math"
	"testing"

	"fastframe/internal/query"
)

// TestSteadyStateRoundZeroAllocs asserts the allocation-free-rounds
// property of the vectorized kernel: once an engine's scratch (selection
// vector, value/group buffers, stop-rule sort buffers, peek code
// buffers) is set up, running MORE rounds allocates NOTHING extra. It
// measures whole executions at two MaxRows cutoffs — identical setup,
// ~4× the steady-state rounds — with testing.AllocsPerRun; the
// difference is the per-round allocation count, which must be zero.
//
// Quantile aggregates retain their sample, which legitimately grows
// with the rows observed: there the difference must stay below the
// number of extra rounds. Geometric growth of the samples (O(log m)
// reallocations per group) passes; any allocation per round — a
// re-sort through an interface, a fresh merge buffer — fails.
func TestSteadyStateRoundZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short mode")
	}
	tab := buildTestTable(t, 100_000, 3)
	cases := []struct {
		name   string
		q      query.Query
		strat  Strategy
		growth bool // retains a growing sample
	}{
		{
			name: "ungrouped-range-scan",
			q: query.Query{
				Agg:  query.Aggregate{Kind: query.Avg, Column: "value"},
				Pred: query.Predicate{}.AndRange("value", 5, math.Inf(1)),
				Stop: query.Exhaust(),
			},
			strat: Scan,
		},
		{
			name: "grouped-scan-topk",
			q: query.Query{
				Agg:     query.Aggregate{Kind: query.Avg, Column: "value"},
				GroupBy: []string{"origin"},
				Stop:    query.TopK(3),
			},
			strat: Scan,
		},
		{
			name: "grouped-activesync-ordered",
			q: query.Query{
				Agg:     query.Aggregate{Kind: query.Avg, Column: "value"},
				GroupBy: []string{"airline"},
				Stop:    query.Ordered(),
			},
			strat: ActiveSync,
		},
		{
			name: "grouped-activepeek",
			q: query.Query{
				Agg:     query.Aggregate{Kind: query.Avg, Column: "value"},
				GroupBy: []string{"airline"},
				Stop:    query.Exhaust(),
			},
			strat: ActivePeek,
		},
		{
			name: "grouped-median-percentile",
			q: query.Query{
				Aggs: []query.Aggregate{
					{Kind: query.Median, Column: "value"},
					{Kind: query.Percentile, Column: "value", P: 0.9},
				},
				GroupBy: []string{"airline"},
				Stop:    query.Exhaust(),
			},
			strat:  Scan,
			growth: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{
				Bounder:   bernsteinRT(),
				Strategy:  tc.strat,
				Delta:     1e-15,
				RoundRows: 2000,
			}
			measure := func(maxRows int) float64 {
				o := opts
				o.MaxRows = maxRows
				return testing.AllocsPerRun(5, func() {
					if _, err := Run(tab, tc.q, o); err != nil {
						t.Fatal(err)
					}
				})
			}
			const fewRows, manyRows = 20_000, 90_000
			few := measure(fewRows)   // setup + ~10 rounds
			many := measure(manyRows) // setup + ~45 rounds
			if tc.growth {
				extraRounds := float64((manyRows - fewRows) / opts.RoundRows)
				if extra := many - few; extra >= extraRounds {
					t.Errorf("quantile rounds allocate: %v extra allocs over %v extra rounds (few=%v many=%v)",
						extra, extraRounds, few, many)
				}
				return
			}
			if extra := many - few; extra > 0 {
				t.Errorf("steady-state rounds allocate: %v extra allocs over ~35 rounds (few=%v many=%v)",
					extra, few, many)
			}
		})
	}
}
