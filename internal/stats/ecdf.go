package stats

import (
	"math"
	"slices"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample.
// It retains the full sample (O(m) memory), which is what the
// Anderson/DKW bounder requires (paper Table 2).
//
// The sample is a sorted prefix plus a tail of observations added since
// the last read. A read sorts only the tail and merges it into the
// prefix in place, so a round that adds k observations to a sample of m
// costs O(k log k + m) instead of a whole-sample O(m log m) re-sort.
//
// Observations enter with their zero sign canonicalized (−0 becomes +0):
// the two zeros compare equal, so under any sort or merge the bits of a
// zero order statistic would otherwise depend on insertion order.
type ECDF struct {
	vals    []float64 // vals[:n] sorted; vals[n:] pending in arrival order
	n       int
	scratch []float64 // merge buffer for the pending tail, reused across reads
}

// Add appends an observation.
func (e *ECDF) Add(x float64) {
	e.grow(1)
	e.vals = append(e.vals, x+0)
}

// AddAll appends a batch of observations.
func (e *ECDF) AddAll(xs []float64) {
	e.grow(len(xs))
	m := len(e.vals)
	e.vals = e.vals[:m+len(xs)]
	for i, x := range xs {
		e.vals[m+i] = x + 0
	}
}

// grow makes room for k more observations, doubling the capacity when
// it runs out so a growing sample reallocates O(log m) times in total.
func (e *ECDF) grow(k int) {
	if need := len(e.vals) + k; need > cap(e.vals) {
		nv := make([]float64, len(e.vals), max(need, 2*cap(e.vals)))
		copy(nv, e.vals)
		e.vals = nv
	}
}

// Count returns the number of observations.
func (e *ECDF) Count() int { return len(e.vals) }

// less is the order of sort.Float64s: ascending, NaNs first.
func less(x, y float64) bool { return x < y || (math.IsNaN(x) && !math.IsNaN(y)) }

// ensureSorted sorts the pending tail and merges it backward into the
// sorted prefix. Only prefix elements greater than the tail's minimum
// move.
func (e *ECDF) ensureSorted() {
	m := len(e.vals)
	if e.n == m {
		return
	}
	tail := e.vals[e.n:]
	slices.Sort(tail)
	if e.n > 0 && less(tail[0], e.vals[e.n-1]) {
		k := len(tail)
		if cap(e.scratch) < k {
			e.scratch = make([]float64, k, max(k, 2*cap(e.scratch)))
		}
		src := e.scratch[:k]
		copy(src, tail)
		i, j := e.n-1, k-1
		for w := m - 1; j >= 0; w-- {
			if i >= 0 && less(src[j], e.vals[i]) {
				e.vals[w] = e.vals[i]
				i--
			} else {
				e.vals[w] = src[j]
				j--
			}
		}
	}
	e.n = m
}

// At returns F̂(x) = (#observations ≤ x) / m. It panics on an empty sample.
func (e *ECDF) At(x float64) float64 {
	if len(e.vals) == 0 {
		panic("stats: ECDF.At on empty sample")
	}
	e.ensureSorted()
	// index of first element > x
	i := sort.Search(len(e.vals), func(i int) bool { return e.vals[i] > x })
	return float64(i) / float64(len(e.vals))
}

// Quantile returns the smallest sample value v with F̂(v) ≥ q, clamping q
// to (0,1]. It panics on an empty sample.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.vals) == 0 {
		panic("stats: ECDF.Quantile on empty sample")
	}
	e.ensureSorted()
	if q <= 0 {
		return e.vals[0]
	}
	if q >= 1 {
		return e.vals[len(e.vals)-1]
	}
	i := int(q*float64(len(e.vals))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(e.vals) {
		i = len(e.vals) - 1
	}
	return e.vals[i]
}

// Sorted returns the sorted sample. The returned slice is owned by the
// ECDF and must not be modified.
func (e *ECDF) Sorted() []float64 {
	e.ensureSorted()
	return e.vals
}

// MeanBelowRank returns the average of the k smallest observations.
// It panics if k is out of range.
func (e *ECDF) MeanBelowRank(k int) float64 {
	if k <= 0 || k > len(e.vals) {
		panic("stats: MeanBelowRank rank out of range")
	}
	e.ensureSorted()
	sum := 0.0
	for _, v := range e.vals[:k] {
		sum += v
	}
	return sum / float64(k)
}

// Reset discards all observations, retaining capacity.
func (e *ECDF) Reset() {
	e.vals = e.vals[:0]
	e.n = 0
}
