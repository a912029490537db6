package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"fastframe"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if n := samplesFor(0.9); n != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", n)
	}
	if n := samplesFor(0.5); n != 20 {
		t.Errorf("samplesFor(0.5) = %d, want 20", n)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted input
	}
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with ten samples above", v, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples: want an error, only nine lie beyond")
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 90 {
		t.Errorf("p50 of 81..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples: want an error")
	}
}

func TestFailedFrac(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 0 {
		t.Errorf("empty tally: failed_frac = %v, want 0", tl.failedFrac())
	}
	for _, failed := range []bool{false, true, false, false, true} {
		tl.add(failed)
	}
	if tl.attempted != 5 || tl.failed != 2 || tl.failedFrac() != 0.4 {
		t.Errorf("tally = %+v, failed_frac %v; want 5 attempted, 2 failed, 0.4", tl, tl.failedFrac())
	}
}

func TestSelfTimes(t *testing.T) {
	sp := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "engine", Start: 20, End: 90},
		{ID: 3, Parent: 2, Name: "round", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "round", Start: 40, End: 80}, // overlaps the first round
		{ID: 5, Name: "request", Start: 200, End: 250},
		{ID: 6, Parent: 5, Name: "engine", Start: 190, End: 240}, // starts before its parent
	}
	got := selfTimes(sp)
	want := map[string]time.Duration{
		"request": 30 + 10, // 100 − 70, and 50 − 40 after clipping
		"engine":  10 + 50, // 70 − 60 covered by rounds, and 50 with no children
		"round":   30 + 40,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

// tiny is a small copy of each workload's shape, fast enough for a test.
func tiny(w workload) workload {
	w.rows = 20_000
	return w
}

func TestOracleCountsShiftedInterval(t *testing.T) {
	ctx := context.Background()
	w, _ := workloadByName("paper-mix")
	st, err := setup(ctx, tiny(w), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()

	var tl tally
	for i := range st.w.mix {
		s := st.run(ctx, i, nil, 0, false)
		if s.failed {
			t.Fatalf("%s failed on correct code: %s", st.w.mix[i].name, s.err)
		}
		tl.add(s.failed)
	}

	// Shift the oracle's answer of F-q1 past its final interval: the run
	// must count the request as failed.
	it := st.w.mix[0]
	res, err := st.eng.Query(ctx, it.sql)
	if err != nil {
		t.Fatal(err)
	}
	want := st.oracle[key(it.sql, nil)]
	if ok, _ := checkIntervals(res, want.ex, want.trivial); !ok {
		t.Fatal("correct interval reported as a miss")
	}
	shifted := *res
	shifted.Groups = append([]fastframe.GroupResult(nil), res.Groups...)
	for i := range shifted.Groups {
		g := &shifted.Groups[i]
		iv := answer(*g, res.Aggs, 0)
		d := iv.Width() + 1
		g.Answers = []fastframe.Interval{{Lo: iv.Lo + d, Hi: iv.Hi + d, Estimate: iv.Estimate + d}}
	}
	if ok, _ := checkIntervals(&shifted, want.ex, want.trivial); ok {
		t.Fatal("shifted interval not reported as a miss")
	}
	if err := st.check(it, nil, &shifted, nil, &sample{}); err == nil {
		t.Fatal("check accepted a shifted interval")
	}
	tl.add(true)
	if tl.failed != 1 || tl.failedFrac() != 0.1 {
		t.Errorf("tally after one miss in ten = %+v", tl)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit, Better string }) {
	t.Helper()
	var names []string
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Errorf("%s: program reports %v, BENCHMARK.json lists %d", what, names, len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("%s: %s reported as %+v (present %v), BENCHMARK.json unit %q", what, m.Name, g, ok, m.Unit)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload, shrunk, in both modes: no
// answer may fail on correct code, and the metrics reported must be
// exactly those BENCHMARK.json declares.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, bw := range bj.Workloads {
		w, ok := workloadByName(bw.Name)
		if !ok {
			t.Errorf("workload %s of BENCHMARK.json is unknown", bw.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			prov := provenance{Workload: w.name, Seed: 3}
			out, err := bench(context.Background(), tiny(w), prov, 2*time.Second, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", w.name, trace, out.Correct, out.Failed, out.Attempted)
			}
			if trace {
				sameMetrics(t, w.name+" traced", out.Metrics, bj.PerLayer)
			} else {
				sameMetrics(t, w.name, out.Metrics, bj.EndToEnd)
				// On a table this small most queries exhaust, so the
				// interval width may be 0; every other figure may not.
				for name, m := range out.Metrics {
					if m.Value <= 0 && name != "ci_width_frac_mean" {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestExpectationsCoverPerLayerMetrics keeps expectations.json, which
// names the end-to-end metric and workload each per-layer metric should
// move, in step with BENCHMARK.json.
func TestExpectationsCoverPerLayerMetrics(t *testing.T) {
	bj := readBenchmarkJSON(t)
	b, err := os.ReadFile("expectations.json")
	if err != nil {
		t.Fatal(err)
	}
	var ex struct {
		PerLayer map[string]struct {
			Moves      []string `json:"moves"`
			On         []string `json:"on"`
			NoChangeOn []string `json:"no_change_on"`
			MeasuredBy string   `json:"measured_by"`
		} `json:"per_layer"`
		HotSpots []struct {
			Name    string   `json:"name"`
			MovesOn []string `json:"moves_on"`
		} `json:"hot_spots"`
	}
	if err := json.Unmarshal(b, &ex); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = true
	}
	known := func(names []string) bool {
		for _, n := range names {
			if _, ok := workloadByName(n); !ok {
				return false
			}
		}
		return true
	}
	if len(ex.PerLayer) != len(bj.PerLayer) {
		t.Errorf("expectations.json has %d per-layer entries, BENCHMARK.json %d", len(ex.PerLayer), len(bj.PerLayer))
	}
	for _, m := range bj.PerLayer {
		e, ok := ex.PerLayer[m.Name]
		if !ok || e.MeasuredBy == "" || len(e.On) == 0 || !known(e.On) || !known(e.NoChangeOn) {
			t.Errorf("expectations.json: %s missing or incomplete: %+v", m.Name, e)
		}
		for _, target := range e.Moves {
			if !e2e[target] {
				t.Errorf("expectations.json: %s moves unknown metric %s", m.Name, target)
			}
		}
	}
	if len(ex.HotSpots) != 4 {
		t.Errorf("expectations.json: %d hot spots, want 4", len(ex.HotSpots))
	}
	for _, h := range ex.HotSpots {
		if len(h.MovesOn) == 0 || !known(h.MovesOn) {
			t.Errorf("hot spot %s: bad workloads %v", h.Name, h.MovesOn)
		}
	}
}
