package core

import (
	"math"

	"fastframe/internal/ci"
)

// deltaDecay is 6/π², the normalizer that makes Σ_k δ/k² telescope to δ
// across optional-stopping rounds (Theorem 4).
var deltaDecay = 6 / (math.Pi * math.Pi)

// RoundDelta returns the per-round error budget δ′ = (6/π²)·δ/k² used by
// OptStop at round k (1-based). Summed over all k ≥ 1 this equals δ, so
// recomputing the interval after every round keeps the overall failure
// probability below δ no matter when the caller stops.
func RoundDelta(delta float64, k int) float64 {
	if k < 1 {
		k = 1
	}
	return deltaDecay * delta / (float64(k) * float64(k))
}

// DecaySchedule assigns round k (1-based) its share of the total error
// budget δ. Any schedule with Σ_k schedule(δ,k) ≤ δ preserves the
// optional-stopping guarantee of Theorem 4; the paper uses the k⁻²
// schedule (RoundDelta) and leaves alternatives to future work — the
// repository's ablation benchmark compares them.
type DecaySchedule func(delta float64, k int) float64

// GeometricDecay returns the schedule δ_k = δ·(1−η)·η^(k−1), which
// telescopes to exactly δ. Small η front-loads the budget (tight early
// intervals, rapidly decaying later ones — good when queries finish in
// few rounds); η near 1 spreads it like a slow k⁻² (good for long
// scans). η must lie in (0, 1).
//
// A deep round whose share underflows gets the smallest positive float
// instead of 0, which is no valid error budget; the excess, 5e-324 a
// round, lies far below the rounding error of δ itself.
func GeometricDecay(eta float64) DecaySchedule {
	if eta <= 0 || eta >= 1 {
		panic("core: GeometricDecay eta outside (0,1)")
	}
	return func(delta float64, k int) float64 {
		if k < 1 {
			k = 1
		}
		return max(delta*(1-eta)*math.Pow(eta, float64(k-1)), math.SmallestNonzeroFloat64)
	}
}

// OptStop implements Algorithm 5: sequentially-valid confidence intervals
// under optional stopping, usable with any ci.Bounder (including
// RangeTrim wrappers). Samples stream in via Observe; after each batch of
// BatchSize samples a new round closes and the running interval
// intersection [max_k L_k, min_k R_k] tightens. The interval returned by
// Interval is valid at every round simultaneously with probability at
// least 1−δ, so any data-dependent stopping rule is safe.
//
// The zero value is not usable; construct with NewOptStop.
type OptStop struct {
	state     ci.State
	params    ci.Params
	batchSize int
	schedule  DecaySchedule

	sinceRound int
	round      int
	bestLo     float64
	bestHi     float64
}

// DefaultBatchSize is the paper's B = 40000 samples between interval
// recomputations (§4.2).
const DefaultBatchSize = 40000

// NewOptStop returns an OptStop driving the given bounder. p.Delta is the
// TOTAL error budget across all rounds. batchSize ≤ 0 selects
// DefaultBatchSize.
func NewOptStop(b ci.Bounder, p ci.Params, batchSize int) *OptStop {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &OptStop{
		state:     b.NewState(),
		params:    p,
		batchSize: batchSize,
		schedule:  RoundDelta,
		bestLo:    p.A,
		bestHi:    p.B,
	}
}

// SetSchedule replaces the δ-decay schedule (default RoundDelta). Must
// be called before the first round closes.
func (o *OptStop) SetSchedule(s DecaySchedule) {
	if o.round > 0 {
		panic("core: SetSchedule after rounds have closed")
	}
	o.schedule = s
}

// Observe incorporates one sample and reports whether a round just
// closed (i.e. the interval was recomputed and may have tightened).
func (o *OptStop) Observe(v float64) (roundClosed bool) {
	o.state.Update(v)
	o.sinceRound++
	if o.sinceRound >= o.batchSize {
		o.CloseRound()
		return true
	}
	return false
}

// CloseRound forces the current partial batch to close: the round
// counter advances, δ′ decays, and the running interval intersection is
// updated. Safe to call with an empty partial batch; the extra round
// only spends budget.
func (o *OptStop) CloseRound() {
	o.round++
	o.sinceRound = 0
	dk := o.schedule(o.params.Delta, o.round)
	p := o.params
	p.Delta = dk
	iv := ci.BoundInterval(o.state, p)
	if iv.Lo > o.bestLo {
		o.bestLo = iv.Lo
	}
	if iv.Hi < o.bestHi {
		o.bestHi = iv.Hi
	}
}

// Round returns the number of closed rounds.
func (o *OptStop) Round() int { return o.round }

// Samples returns the number of samples observed.
func (o *OptStop) Samples() int { return o.state.Count() }

// Interval returns the running intersection [max_k L_k, min_k R_k],
// which is a (1−δ) confidence interval for the dataset mean at every
// point in time. Before the first round it is the trivial [A,B].
func (o *OptStop) Interval() ci.Interval {
	lo, hi := o.bestLo, o.bestHi
	if lo > hi {
		// The intersection collapsed; degenerate onto the estimate.
		mid := o.state.Estimate()
		lo, hi = mid, mid
	}
	return ci.Interval{Lo: lo, Hi: hi, Estimate: o.state.Estimate(), Samples: o.state.Count()}
}

// SetN updates the dataset size (or size upper bound) used in subsequent
// rounds. The executor uses this to tighten N⁺ as the COUNT estimate
// sharpens (Theorem 3); dataset-size monotonicity keeps every past round
// valid because past rounds used a larger N.
func (o *OptStop) SetN(n int) { o.params.N = n }
