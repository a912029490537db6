package exec

import (
	"context"
	"math/rand/v2"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"fastframe/internal/query"
	"fastframe/internal/table"
)

// copiesTable builds a table whose float column "value" has copies
// value_1 … value_n holding the same bytes, with the same catalog
// bounds, plus an "airline" grouping column.
func copiesTable(tb testing.TB, rows, n int, seed uint64) *table.Table {
	tb.Helper()
	specs := []table.ColumnSpec{
		{Name: "value", Kind: table.Float},
		{Name: "airline", Kind: table.Categorical},
	}
	for k := 1; k <= n; k++ {
		specs = append(specs, table.ColumnSpec{Name: "value_" + strconv.Itoa(k), Kind: table.Float})
	}
	rng := rand.New(rand.NewPCG(seed, 7))
	airlines := []string{"AA", "BB", "CC", "DD"}
	b := table.NewBuilder(table.MustSchema(specs...), 25)
	for i := 0; i < rows; i++ {
		a := rng.IntN(len(airlines))
		v := float64(4*a) + rng.NormFloat64()*2
		floats := map[string]float64{"value": v}
		for k := 1; k <= n; k++ {
			floats["value_"+strconv.Itoa(k)] = v
		}
		if err := b.Append(table.Row{Floats: floats, Cats: map[string]string{"airline": airlines[a]}}); err != nil {
			tb.Fatal(err)
		}
	}
	b.WidenBounds("value", -50, 80)
	for k := 1; k <= n; k++ {
		b.WidenBounds("value_"+strconv.Itoa(k), -50, 80)
	}
	tab, err := b.Build(rng)
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// sharingLists returns the same SELECT list twice: once with every
// member over "value", so the X, X² and ECDF tracks are shared, and
// once with each member over its own byte-identical copy, so input
// deduplication cannot merge anything and every member owns its tracks.
func sharingLists(stop query.Stop) (shared, private query.Query) {
	kinds := []query.Aggregate{
		{Kind: query.Avg}, {Kind: query.Var}, {Kind: query.Stddev},
		{Kind: query.Median}, {Kind: query.Percentile, P: 0.9},
	}
	shared = query.Query{Name: "shared", GroupBy: []string{"airline"}, Stop: stop}
	private = query.Query{Name: "private", GroupBy: []string{"airline"}, Stop: stop}
	for k, a := range kinds {
		a.Column = "value"
		shared.Aggs = append(shared.Aggs, a)
		a.Column = "value_" + strconv.Itoa(k+1)
		private.Aggs = append(private.Aggs, a)
	}
	return shared, private
}

// orderedByMedian stops once the groups' MEDIAN intervals (list
// member 3) are disjoint.
func orderedByMedian() query.Stop {
	s := query.Ordered()
	s.AggIndex = 3
	return s
}

// sharingModes are the ways a scan ends: converged under a width rule,
// aborted by the progress callback, and exhausted into exact answers.
var sharingModes = []struct {
	name string
	stop query.Stop
	tune func(*Options)
}{
	{name: "converged", stop: orderedByMedian()},
	{name: "aborted", stop: query.Exhaust(), tune: func(o *Options) {
		inner := o.OnRound
		o.OnRound = func(s RoundSnapshot) bool { return inner(s) && s.Round < 4 }
	}},
	{name: "exhausted", stop: query.Exhaust()},
}

// TestSharedTracksMatchPrivateTracks: members of a SELECT list over the
// same input share one X track, one X² track and one ECDF per group;
// the Result and the Progress stream must be exactly those of the same
// list with every member reading its own copy of the column.
func TestSharedTracksMatchPrivateTracks(t *testing.T) {
	tab := copiesTable(t, 24_000, 5, 3)
	for _, mode := range sharingModes {
		shq, prq := sharingLists(mode.stop)
		for _, st := range []Strategy{Scan, ActiveSync, ActivePeek} {
			for _, p := range []int{1, 4} {
				run := func(q query.Query) (*Result, []RoundSnapshot) {
					opts := sharedOpts()
					opts.Strategy = st
					opts.Parallelism = p
					snaps := captureRounds(&opts)
					if mode.tune != nil {
						mode.tune(&opts)
					}
					res, err := Run(tab, q, opts)
					if err != nil {
						t.Fatalf("%s/%s/P=%d %s: %v", mode.name, st, p, q.Name, err)
					}
					return stripDuration(res), *snaps
				}
				sres, ssnaps := run(shq)
				pres, psnaps := run(prq)
				checkSharingMode(t, mode.name, mode.name, sres)
				if !reflect.DeepEqual(sres, pres) {
					t.Errorf("%s/%s/P=%d: shared-track result differs from private tracks\nshared:  %+v\nprivate: %+v",
						mode.name, st, p, sres, pres)
				}
				if !reflect.DeepEqual(ssnaps, psnaps) {
					t.Errorf("%s/%s/P=%d: progress streams differ (%d vs %d rounds)",
						mode.name, st, p, len(ssnaps), len(psnaps))
				}
			}
		}
	}
}

// TestSharedTracksInSharedScanCohort runs both lists in every mode as
// one shared-scan cohort; each member must match a solo run of the
// other list from the block it was admitted at.
func TestSharedTracksInSharedScanCohort(t *testing.T) {
	tab := copiesTable(t, 24_000, 5, 4)
	d := NewSharedDriver(tab)
	type job struct {
		mode      int
		q, mirror query.Query
	}
	var jobs []job
	for m, mode := range sharingModes {
		shq, prq := sharingLists(mode.stop)
		jobs = append(jobs, job{m, shq, prq}, job{m, prq, shq})
	}
	type outcome struct {
		res   *Result
		snaps []RoundSnapshot
		err   error
	}
	out := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := sharedOpts()
			snaps := captureRounds(&o)
			if tune := sharingModes[j.mode].tune; tune != nil {
				tune(&o)
			}
			res, err := d.Run(context.Background(), j.q, o)
			out[i] = outcome{res, *snaps, err}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		name := sharingModes[j.mode].name + "/" + j.q.Name
		if out[i].err != nil {
			t.Fatalf("%s: %v", name, out[i].err)
		}
		checkSharingMode(t, name, sharingModes[j.mode].name, out[i].res)
		o := sharedOpts()
		o.StartBlock = out[i].res.StartBlock
		wantSnaps := captureRounds(&o)
		if tune := sharingModes[j.mode].tune; tune != nil {
			tune(&o)
		}
		want, err := RunContext(context.Background(), tab, j.mirror, o)
		if err != nil {
			t.Fatalf("%s: solo %s replay: %v", name, j.mirror.Name, err)
		}
		if got := stripDuration(out[i].res); !reflect.DeepEqual(stripDuration(want), got) {
			t.Errorf("%s from block %d differs from a solo %s run\nsolo:   %+v\ncohort: %+v",
				name, got.StartBlock, j.mirror.Name, want, got)
		}
		if !reflect.DeepEqual(*wantSnaps, out[i].snaps) {
			t.Errorf("%s: progress stream differs from a solo %s run (%d vs %d rounds)",
				name, j.mirror.Name, len(*wantSnaps), len(out[i].snaps))
		}
	}
}

// checkSharingMode asserts the run ended the way its mode names, so
// each mode really exercises its end path.
func checkSharingMode(t *testing.T, name, mode string, res *Result) {
	t.Helper()
	ended := "converged"
	switch {
	case res.Aborted:
		ended = "aborted"
	case res.Exhausted:
		ended = "exhausted"
	case !res.Stopped:
		ended = "unfinished"
	}
	if ended != mode {
		t.Fatalf("%s: run ended %s, want %s", name, ended, mode)
	}
}
