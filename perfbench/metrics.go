package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"fastframe"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile: a percentile with fewer has no support in the run.
const minBeyond = 10

// samplesFor returns the fewest samples that support percentile p under
// the minBeyond rule.
func samplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-rank(n, p) >= minBeyond {
			return n
		}
	}
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-quantile of xs, or an error
// when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || n-rank(n, p) < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples, run has %d", 100*p, samplesFor(p), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(n, p)-1], nil
}

// median is the 0.5 percentile without the support rule, for
// quantities that are not tail latencies (medians of setup repeats,
// per-layer figures over a few calls).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), 0.5)-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached reads 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tally counts attempted and failed queries.
type tally struct{ attempted, failed int }

func (t *tally) add(failed bool) {
	t.attempted++
	if failed {
		t.failed++
	}
}

func (t tally) failedFrac() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// span is one timed interval of the traced run. Times are offsets from
// the start of the run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover (children are clipped to the parent, and
// overlapping children are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// answer returns group g's interval for the i-th SELECT-list aggregate.
func answer(g fastframe.GroupResult, aggs []fastframe.Agg, i int) fastframe.Interval {
	if i < len(g.Answers) {
		return g.Answers[i]
	}
	return g.Answer(aggs[i])
}

// checkIntervals reports whether every interval of every group and
// aggregate in res contains the exact answer, and the mean width of
// those intervals as a share of each aggregate's trivial width.
func checkIntervals(res *fastframe.Result, want *fastframe.ExactResult, trivial []float64) (ok bool, widthFrac float64) {
	if len(res.Aggs) != len(want.Aggs) || len(trivial) != len(want.Aggs) {
		return false, 0
	}
	var sum float64
	var n int
	for _, g := range res.Groups {
		eg := want.Group(g.Key)
		if eg == nil {
			return false, 0 // the scan saw rows of a group that has none
		}
		for i := range want.Aggs {
			iv := answer(g, res.Aggs, i)
			if !iv.Contains(eg.Stat(i)) {
				return false, 0
			}
			sum += iv.Width() / trivial[i]
			n++
		}
	}
	return true, ratio(sum, float64(n))
}

// sameExact reports whether got equals want group for group. Floats
// may differ in the last bits only through summation order.
func sameExact(got, want *fastframe.ExactResult) bool {
	if len(got.Groups) != len(want.Groups) || len(got.Aggs) != len(want.Aggs) {
		return false
	}
	for i, g := range got.Groups {
		w := want.Groups[i]
		if g.Key != w.Key || g.Count != w.Count || len(g.Stats) != len(w.Stats) {
			return false
		}
		for j := range g.Stats {
			if !near(g.Stats[j], w.Stats[j]) {
				return false
			}
		}
	}
	return true
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// trivialWidth is the width of the interval an aggregate has before any
// row is read: the catalog range [a, b] for location statistics, its
// variance and deviation ceilings, and [0, dictSize] for COUNT DISTINCT.
func trivialWidth(agg fastframe.Agg, a, b float64, dictSize int) (float64, error) {
	switch agg {
	case fastframe.AggAvg, fastframe.AggMedian, fastframe.AggPercentile:
		return b - a, nil
	case fastframe.AggVar:
		return (b - a) * (b - a) / 4, nil
	case fastframe.AggStddev:
		return (b - a) / 2, nil
	case fastframe.AggCountDistinct:
		return float64(dictSize), nil
	}
	return 0, fmt.Errorf("no trivial width for %v", agg)
}
