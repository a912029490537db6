package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestECDFAt(t *testing.T) {
	var e ECDF
	e.AddAll([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.5}, {3.9, 0.75}, {4, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFAtEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At on empty ECDF did not panic")
		}
	}()
	var e ECDF
	e.At(0)
}

func TestECDFQuantile(t *testing.T) {
	var e ECDF
	e.AddAll([]float64{10, 20, 30, 40, 50})
	cases := []struct {
		q    float64
		want float64
	}{
		{-1, 10}, {0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {1, 50}, {2, 50},
	}
	for _, c := range cases {
		if got := e.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestECDFMeanBelowRank(t *testing.T) {
	var e ECDF
	e.AddAll([]float64{5, 1, 3}) // sorted: 1 3 5
	if got := e.MeanBelowRank(1); got != 1 {
		t.Errorf("MeanBelowRank(1) = %v, want 1", got)
	}
	if got := e.MeanBelowRank(2); got != 2 {
		t.Errorf("MeanBelowRank(2) = %v, want 2", got)
	}
	if got := e.MeanBelowRank(3); got != 3 {
		t.Errorf("MeanBelowRank(3) = %v, want 3", got)
	}
}

func TestECDFMeanBelowRankPanics(t *testing.T) {
	var e ECDF
	e.Add(1)
	for _, k := range []int{0, -1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MeanBelowRank(%d) did not panic", k)
				}
			}()
			e.MeanBelowRank(k)
		}()
	}
}

func TestECDFInterleavedAddAndQuery(t *testing.T) {
	var e ECDF
	e.Add(2)
	if got := e.At(2); got != 1 {
		t.Fatalf("At(2) = %v, want 1", got)
	}
	e.Add(1) // must re-sort lazily
	if got := e.At(1); got != 0.5 {
		t.Fatalf("after second Add, At(1) = %v, want 0.5", got)
	}
	e.Reset()
	if e.Count() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	var e ECDF
	for i := 0; i < 500; i++ {
		e.Add(rng.NormFloat64())
	}
	prev := -0.1
	for x := -4.0; x <= 4.0; x += 0.05 {
		v := e.At(x)
		if v < prev {
			t.Fatalf("ECDF not monotone at %v: %v < %v", x, v, prev)
		}
		prev = v
	}
}

func TestECDFSortedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var e ECDF
		for _, x := range xs {
			if IsFiniteNumber(x) {
				e.Add(x)
			}
		}
		return sort.Float64sAreSorted(e.Sorted())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestECDFMergeMatchesFullSort: rounds of random batches merged into a
// growing sample leave exactly the multiset a one-shot sort produces.
func TestECDFMergeMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	var e ECDF
	var all []float64
	for round := 0; round < 50; round++ {
		batch := make([]float64, rng.IntN(300))
		for i := range batch {
			batch[i] = math.Round(rng.NormFloat64() * 20)
		}
		e.AddAll(batch)
		all = append(all, batch...)
		want := append([]float64(nil), all...)
		sort.Float64s(want)
		if got := e.Sorted(); !slices.Equal(got, want) {
			t.Fatalf("round %d: merged sample differs from a full sort", round)
		}
	}
}

// TestECDFRoundsAllocationFree: once the sample and merge scratch have
// reached their size, a Reset keeps that capacity and further rounds of
// AddAll+Sorted allocate nothing — the merge buffer is reused.
func TestECDFRoundsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	batches := make([][]float64, 20)
	for i := range batches {
		batches[i] = make([]float64, 500)
		for j := range batches[i] {
			batches[i][j] = rng.NormFloat64()
		}
	}
	var e ECDF
	rounds := func() {
		for _, b := range batches {
			e.AddAll(b)
			e.Sorted()
		}
	}
	rounds() // warm-up: sizes the sample and the scratch
	e.Reset()
	allocs := testing.AllocsPerRun(10, func() {
		rounds()
		e.Reset()
	})
	if allocs != 0 {
		t.Fatalf("AddAll+Sorted rounds allocate %v times per run, want 0", allocs)
	}
}

// BenchmarkECDFRounds is the per-round cost of a quantile sketch: k new
// observations join a sorted sample of m and the sample is read back
// sorted, as one round of a MEDIAN aggregate does.
func BenchmarkECDFRounds(b *testing.B) {
	const k = 2000
	rng := rand.New(rand.NewPCG(17, 19))
	for _, m := range []int{10_000, 100_000, 500_000} {
		prefix := make([]float64, m)
		for i := range prefix {
			prefix[i] = rng.NormFloat64()
		}
		sort.Float64s(prefix)
		batch := make([]float64, k)
		for i := range batch {
			batch[i] = rng.NormFloat64()
		}
		b.Run("m="+strconv.Itoa(m), func(b *testing.B) {
			var e ECDF
			e.AddAll(prefix)
			e.AddAll(batch)
			e.Sorted()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e.Reset()
				e.AddAll(prefix)
				e.n = m // the prefix is already sorted
				b.StartTimer()
				e.AddAll(batch)
				e.Sorted()
			}
		})
	}
}
