package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// FuzzWelfordMatchesTwoPass feeds arbitrary byte-derived float streams
// through Welford and cross-checks the two-pass formulas.
func FuzzWelfordMatchesTwoPass(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 255, 0, 128})
	f.Fuzz(func(t *testing.T, raw []byte) {
		xs := make([]float64, 0, len(raw))
		var w Welford
		for _, b := range raw {
			v := (float64(b) - 128) * 3.7
			xs = append(xs, v)
			w.Add(v)
		}
		if len(xs) == 0 {
			return
		}
		if m := Mean(xs); math.Abs(w.Mean()-m) > 1e-9*math.Max(1, math.Abs(m)) {
			t.Fatalf("mean %v vs %v", w.Mean(), m)
		}
		if v := Variance(xs); math.Abs(w.Variance()-v) > 1e-6*math.Max(1, v) {
			t.Fatalf("variance %v vs %v", w.Variance(), v)
		}
		if w.Variance() < 0 {
			t.Fatal("negative variance")
		}
	})
}

// FuzzHypergeomCDF checks CDF sanity for arbitrary parameters: values
// in [0,1], monotone in x.
func FuzzHypergeomCDF(f *testing.F) {
	f.Add(uint16(100), uint16(30), uint16(20))
	f.Add(uint16(5), uint16(5), uint16(5))
	f.Add(uint16(1), uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, nRaw, kRaw, drawRaw uint16) {
		bigN := int(nRaw)%500 + 1
		bigK := int(kRaw) % (bigN + 1)
		n := int(drawRaw)%bigN + 1
		prev := 0.0
		for x := -1; x <= n; x++ {
			c := HypergeomCDFLower(x, bigN, bigK, n)
			if c < 0 || c > 1 || math.IsNaN(c) {
				t.Fatalf("CDF(%d; N=%d K=%d n=%d) = %v", x, bigN, bigK, n, c)
			}
			if c+1e-9 < prev {
				t.Fatalf("CDF not monotone at %d: %v < %v", x, c, prev)
			}
			prev = c
		}
		if math.Abs(prev-1) > 1e-6 {
			t.Fatalf("CDF(n) = %v, want 1", prev)
		}
	})
}

// ecdfFuzzValue maps a program byte to an observation: −0, NaN and ±Inf
// for the low codes, otherwise a quarter-step value in [−31, 31.75]
// (so ties, and both zeros, are common).
func ecdfFuzzValue(b byte) float64 {
	switch b {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.NaN()
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Inf(1)
	}
	return float64(int(b)-128) / 4
}

// FuzzECDFIncremental runs byte programs of interleaved ECDF calls —
// Add, AddAll, Sorted, Quantile, At, MeanBelowRank, Reset — and after
// every call checks that the sample, read through a clone so the
// pending tail is left as it was, is bitwise the from-scratch
// sort.Float64s of the same multiset with −0 canonicalized to +0, and
// that every query answers as a one-shot ECDF over that multiset does.
func FuzzECDFIncremental(f *testing.F) {
	f.Add([]byte{})                                                           // empty
	f.Add([]byte{0, 200, 2})                                                  // single value
	f.Add([]byte{1, 6, 9, 9, 9, 9, 9, 9, 2, 0, 9})                            // all ties
	f.Add([]byte{1, 5, 250, 200, 150, 100, 50, 1, 3, 40, 30, 20, 2})          // reverse-sorted batches
	f.Add([]byte{1, 4, 10, 200, 128, 0, 0, 129, 1, 3, 5, 190, 128, 2, 3, 128, // interleaved
		1, 2, 1, 3, 4, 130, 5, 3, 6, 1, 2, 128, 0, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		var e ECDF
		var ref []float64
		for len(prog) > 0 {
			var oneShot ECDF
			oneShot.AddAll(ref)
			switch op := next() % 7; op {
			case 0:
				v := ecdfFuzzValue(next())
				e.Add(v)
				ref = append(ref, v)
			case 1:
				batch := make([]float64, next()%17)
				for i := range batch {
					batch[i] = ecdfFuzzValue(next())
				}
				e.AddAll(batch)
				ref = append(ref, batch...)
			case 2:
				e.Sorted()
			case 3:
				if len(ref) > 0 {
					q := float64(next()) / 255
					if got, want := e.Quantile(q), oneShot.Quantile(q); !sameBits(got, want) {
						t.Fatalf("Quantile(%v) = %v, one-shot %v", q, got, want)
					}
				}
			case 4:
				if len(ref) > 0 {
					x := ecdfFuzzValue(next())
					if got, want := e.At(x), oneShot.At(x); got != want {
						t.Fatalf("At(%v) = %v, one-shot %v", x, got, want)
					}
				}
			case 5:
				if len(ref) > 0 {
					k := int(next())%len(ref) + 1
					if got, want := e.MeanBelowRank(k), oneShot.MeanBelowRank(k); !sameBits(got, want) {
						t.Fatalf("MeanBelowRank(%d) = %v, one-shot %v", k, got, want)
					}
				}
			case 6:
				e.Reset()
				ref = ref[:0]
			}

			want := make([]float64, len(ref))
			for i, v := range ref {
				if v == 0 {
					v = 0 // canonical +0
				}
				want[i] = v
			}
			sort.Float64s(want)
			clone := ECDF{vals: slices.Clone(e.vals), n: e.n}
			got := clone.Sorted()
			if e.Count() != len(want) || len(got) != len(want) {
				t.Fatalf("count %d (sorted %d), want %d", e.Count(), len(got), len(want))
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("Sorted()[%d] = %v (%x), want %v (%x)\ngot  %v\nwant %v",
						i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), got, want)
				}
			}
		}
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
