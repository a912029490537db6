package exec

import (
	"math"

	"fastframe/internal/ci"
	"fastframe/internal/core"
	"fastframe/internal/query"
	"fastframe/internal/stats"
)

// inputKind classifies one gathered scan input. The engine deduplicates
// the SELECT list's inputs into one gather buffer per distinct input:
// every aggregate references inputs by index, so a block is read once no
// matter how many aggregates consume each column.
type inputKind int

const (
	// inColumn reads one float column's bound view.
	inColumn inputKind = iota
	// inKernel evaluates a compiled expression over the bound views.
	inKernel
	// inOne yields the constant 1 (COUNT: only membership matters).
	inOne
	// inCatCode yields a categorical column's dictionary code as a
	// float64 — exact for every uint32, which keeps all observation
	// plumbing (gather buffers, parallel shards, replay) monotyped.
	inCatCode
	// inSquare yields the square of another input (the E[X²] track of
	// VAR/STDDEV), derived from that input's already-gathered buffer.
	inSquare
)

// inputSpec is one deduplicated scan input.
type inputSpec struct {
	kind   inputKind
	slot   int // inColumn: float slot; inCatCode: cat slot
	kernel func(vars [][]float64, row int) float64
	src    int // inSquare: index of the input being squared
}

// trackKind classifies one per-group sketch fed from a gather input.
type trackKind int

const (
	// trMean is a bounder state over the input plus the input's exact
	// running sums: the X track of Avg/Sum/Count/Var/Stddev, or the X²
	// track of Var/Stddev (whose input is the derived square).
	trMean trackKind = iota
	// trECDF retains the input's sample (Median/Percentile).
	trECDF
	// trDistinct marks the dictionary codes seen (CountDistinct).
	trDistinct
)

// trackSpec is one deduplicated per-group sketch. The engine keeps one
// track per (kind, input): the first SELECT-list member that needs it
// owns it, and every later member over the same input reads the
// owner's copy. So MEDIAN(x), PERCENTILE(x, p) retain and sort one
// sample, and AVG(x), VAR(x), STDDEV(x) run one X track and one X²
// track, each fed once per row however many members consume it.
type trackSpec struct {
	kind     trackKind
	in       int // gather input feeding the track
	dictSize int // trDistinct: size of the candidate code space
}

// track is one group's state for one trackSpec.
type track struct {
	state       ci.State   // trMean: bounder over the input
	sum, absSum float64    // trMean: exact running sums of the input
	ecdf        stats.ECDF // trECDF: retained sample
	seen        []bool     // trDistinct: dense code-seen table
	distinct    int        // trDistinct: observed distinct codes
}

// see marks dictionary code v observed.
func (tr *track) see(v float64) {
	if c := int(v); !tr.seen[c] {
		tr.seen[c] = true
		tr.distinct++
	}
}

// aggSpec is the engine-wide (group-independent) description of one
// SELECT-list aggregate: its kind, which per-group tracks feed it, the
// catalog range bounds of their inputs, and kind parameters.
type aggSpec struct {
	kind query.AggKind
	tr   int // primary track: the X track, ECDF or code-seen table
	tr2  int // X² track (Var/Stddev), else -1

	a, b   float64 // primary input catalog bounds
	a2, b2 float64 // squared input bounds (Var/Stddev)

	p        float64 // quantile (Median: 0.5, Percentile: Aggregate.P)
	dictSize int     // CountDistinct: size of the candidate code space
}

// varCap returns Popoviciu's bound (b−a)²/4 on the variance of a
// [a,b]-valued dataset.
func (sp *aggSpec) varCap() float64 {
	d := sp.b - sp.a
	return d * d / 4
}

// aggState is the per-(group, aggregate) answer state: the running
// interval intersections across rounds. The sketches behind them live
// in the group's tracks, which several members may share; each member
// still intersects its own intervals at its own δ share. The classic
// triple mirrors the single-aggregate engine; best carries the answer
// of the sketch kinds (quantile / variance / distinct-count space).
type aggState struct {
	bestAvg   ci.Interval
	bestCount ci.Interval
	bestSum   ci.Interval
	bestSq    ci.Interval // Var/Stddev: running E[X²] interval
	best      ci.Interval
}

// answer returns this aggregate's answer interval. Stddev is stored in
// variance space (intersections stay linear) and transformed here.
func (as *aggState) answer(sp *aggSpec) ci.Interval {
	switch sp.kind {
	case query.Sum:
		return as.bestSum
	case query.Count:
		return as.bestCount
	case query.Avg:
		return as.bestAvg
	case query.Stddev:
		return ci.Interval{
			Lo:       math.Sqrt(math.Max(0, as.best.Lo)),
			Hi:       math.Sqrt(math.Max(0, as.best.Hi)),
			Estimate: math.Sqrt(math.Max(0, as.best.Estimate)),
			Samples:  as.best.Samples,
		}
	default:
		return as.best
	}
}

// groupState is the streaming state for one aggregate view: the
// deduplicated tracks over the view's sampled rows, per-aggregate
// answer states, shared exact coverage counters, and activeness
// (Algorithm 5). All aggregates of the SELECT list share the view, so
// one row count (mv) serves every per-aggregate count interval.
type groupState struct {
	id    int
	codes []uint32

	tracks []track
	aggs   []aggState
	mv     int // view rows observed (shared by every aggregate)

	// extra is the coverage this group earned from blocks skipped by
	// active scanning while the group was active (such blocks provably
	// contain none of its rows). Total coverage is coveredAll + extra.
	extra int

	active bool
	exact  bool
}

func newGroupState(id int, codes []uint32, b ci.Bounder, tracks []trackSpec, specs []aggSpec, bigR int) *groupState {
	gs := &groupState{
		id:     id,
		codes:  codes,
		tracks: make([]track, len(tracks)),
		aggs:   make([]aggState, len(specs)),
		active: true,
	}
	for i, ts := range tracks {
		switch ts.kind {
		case trMean:
			gs.tracks[i].state = b.NewState()
		case trDistinct:
			gs.tracks[i].seen = make([]bool, ts.dictSize)
		}
	}
	for i := range specs {
		sp := &specs[i]
		as := &gs.aggs[i]
		as.bestAvg = ci.Interval{Lo: sp.a, Hi: sp.b}
		as.bestCount = ci.Interval{Lo: 0, Hi: float64(bigR)}
		as.bestSum = ci.Interval{
			Lo: math.Min(math.Min(0, float64(bigR)*sp.a), float64(bigR)*sp.b),
			Hi: math.Max(math.Max(0, float64(bigR)*sp.a), float64(bigR)*sp.b),
		}
		switch sp.kind {
		case query.Median, query.Percentile:
			as.best = ci.Interval{Lo: sp.a, Hi: sp.b}
		case query.Var, query.Stddev:
			as.bestSq = ci.Interval{Lo: sp.a2, Hi: sp.b2}
			as.best = ci.Interval{Lo: 0, Hi: sp.varCap()}
		case query.CountDistinct:
			as.best = ci.Interval{Lo: 0, Hi: float64(sp.dictSize)}
		}
	}
	return gs
}

// observeRow incorporates one view row, whose deduplicated input values
// sit in rowVals (index-aligned with the engine's inputSpec list).
func (gs *groupState) observeRow(tracks []trackSpec, rowVals []float64) {
	for i, ts := range tracks {
		tr := &gs.tracks[i]
		v := rowVals[ts.in]
		switch ts.kind {
		case trMean:
			tr.state.Update(v)
			tr.sum += v
			tr.absSum += math.Abs(v)
		case trECDF:
			tr.ecdf.Add(v)
		case trDistinct:
			tr.see(v)
		}
	}
	gs.mv++
}

// observeRun incorporates rows lo..hi (a consecutive same-group run) of
// the gathered input buffers, in order — byte-identical to calling
// observeRow per row (running sums accumulate left-to-right and
// State.UpdateBatch is contractually the same recurrence as repeated
// Update), with one bounder dispatch per run instead of per row. Each
// track is fed once, however many aggregates read it.
func (gs *groupState) observeRun(tracks []trackSpec, in [][]float64, lo, hi int) {
	for i, ts := range tracks {
		tr := &gs.tracks[i]
		vs := in[ts.in][lo:hi]
		switch ts.kind {
		case trMean:
			tr.state.UpdateBatch(vs)
			sum, absSum := tr.sum, tr.absSum
			for _, v := range vs {
				sum += v
				absSum += math.Abs(v)
			}
			tr.sum, tr.absSum = sum, absSum
		case trECDF:
			tr.ecdf.AddAll(vs)
		case trDistinct:
			for _, v := range vs {
				tr.see(v)
			}
		}
	}
	gs.mv += hi - lo
}

// covered returns the rows whose membership in this view is resolved.
func (gs *groupState) covered(coveredAll int) int { return coveredAll + gs.extra }

// intersect tightens dst with iv, keeping estimates/samples current.
func intersect(dst *ci.Interval, iv ci.Interval) {
	if iv.Lo > dst.Lo {
		dst.Lo = iv.Lo
	}
	if iv.Hi < dst.Hi {
		dst.Hi = iv.Hi
	}
	if dst.Lo > dst.Hi {
		// Collapse pathological crossings onto the estimate.
		dst.Lo, dst.Hi = iv.Estimate, iv.Estimate
	}
	dst.Estimate = iv.Estimate
	dst.Samples = iv.Samples
}

// shardBuf is one worker's buffered observations for one group shard,
// in scan order: the rows' dense group IDs and, column-wise, each
// deduplicated input's values (parallel arrays). Workers buffer
// observations instead of updating shared group states, which is what
// keeps the parallel path free of locks and bit-identical to the
// sequential one; the struct-of-arrays layout lets the replay feed each
// same-group run straight into observeRun without re-gathering.
type shardBuf struct {
	gids []int
	vals [][]float64 // [input][row in shard]
}

func (sb *shardBuf) reset() {
	sb.gids = sb.gids[:0]
	for k := range sb.vals {
		sb.vals[k] = sb.vals[k][:0]
	}
}

// roundAccum is one worker's accumulator for one round of the
// partitioned scan: coverage counters plus the worker's observations
// bucketed by group shard, each bucket in scan order. Workers share
// nothing inside a round; accumulators meet only at the round barrier
// via Merge and the sharded replay.
type roundAccum struct {
	coveredAll  int // rows resolved for every view (fetched + pruned)
	fetched     int // blocks actually read
	skipped     int // rows of active-scan-skipped blocks
	quarantined int // blocks skipped as damaged (DegradedReads)
	shards      []shardBuf

	// Per-worker kernel scratch, allocated once with the accumulator
	// and reused for every block of every round (the parallel
	// counterpart of the engine's sequential scratch).
	sel     []int32
	valsIn  [][]float64 // gathered inputs of the current block
	gids    []int32
	rowVals []float64 // scalar path: one row's input values

	// views is this worker's bound per-block column views; err records
	// the worker's first out-of-core read failure, collected by the
	// coordinator at the round barrier.
	views *viewSet
	err   error
}

// reset prepares the accumulator for a round with the given shard
// count, retaining buffer capacity across rounds.
func (a *roundAccum) reset(shards, numInputs int) {
	a.coveredAll, a.fetched, a.skipped, a.quarantined, a.err = 0, 0, 0, 0, nil
	if len(a.shards) != shards {
		a.shards = make([]shardBuf, shards)
	}
	for i := range a.shards {
		if a.shards[i].vals == nil {
			a.shards[i].vals = make([][]float64, numInputs)
		}
		a.shards[i].reset()
	}
}

// add buckets one observation by its group shard: the values of row i
// of the worker's gathered input buffers.
func (a *roundAccum) add(gid, i int) {
	sb := &a.shards[gid%len(a.shards)]
	sb.gids = append(sb.gids, gid)
	for k := range sb.vals {
		sb.vals[k] = append(sb.vals[k], a.valsIn[k][i])
	}
}

// addRow buckets one scalar-path observation (rowVals holds the row's
// input values, index-aligned with the input list).
func (a *roundAccum) addRow(gid int, rowVals []float64) {
	sb := &a.shards[gid%len(a.shards)]
	sb.gids = append(sb.gids, gid)
	for k := range sb.vals {
		sb.vals[k] = append(sb.vals[k], rowVals[k])
	}
}

// Merge folds another worker's counters into a at the round barrier.
// All counters are integers, so merging is exact and order-insensitive;
// the buffered observations are deliberately NOT concatenated here —
// the replay step walks accumulators in partition order so every group
// state sees its values in exactly the sequential scan order. (That
// order-preserving replay, rather than a state-level merge such as
// stats.Welford.Merge, is what makes parallel results bit-identical
// even for order-dependent bounder states like RangeTrim, which clips
// each value against the running extrema of the whole prefix.)
func (a *roundAccum) Merge(o *roundAccum) {
	a.coveredAll += o.coveredAll
	a.fetched += o.fetched
	a.skipped += o.skipped
	a.quarantined += o.quarantined
}

// roundConfig carries the per-round bound-computation context.
type roundConfig struct {
	specs      []aggSpec // the SELECT list's resolved aggregates
	bigR       int       // scramble size
	knownN     bool      // view is the whole table (trivial pred, no groups)
	alpha      float64   // Theorem 3 split
	deltaView  float64   // total budget for this view, split across aggregates
	exactCount bool      // hypergeometric N⁺ instead of Lemma 5
}

// avgTrack recomputes one mean-bounder track's interval at budget delta:
// the known-N shortcut when the view is the whole scramble, otherwise
// Theorem 3 — (1−α)·delta buys an upper bound N⁺ on the view size, the
// interval itself runs at α·delta (δ/2 per side inside BoundInterval).
// Dataset-size monotonicity (§3.3) makes the substitution safe.
func avgTrack(state ci.State, a, b float64, mv, r int, cfg *roundConfig, delta float64) ci.Interval {
	if cfg.knownN {
		return ci.BoundInterval(state, ci.Params{A: a, B: b, N: cfg.bigR, Delta: delta})
	}
	var nUp int
	if cfg.exactCount {
		nUp = stats.HypergeomCountUpper(mv, cfg.bigR, r, (1-cfg.alpha)*delta)
		if nUp < 1 {
			nUp = 1
		}
	} else {
		nUp = countUpper(r, cfg.bigR, mv, (1-cfg.alpha)*delta)
	}
	return ci.BoundInterval(state, ci.Params{A: a, B: b, N: nUp, Delta: cfg.alpha * delta})
}

// varFrom turns a mean interval and an E[X²] interval into a variance
// interval via VAR = E[X²] − E[X]² interval arithmetic, clamped to
// [0, (b−a)²/4] (Popoviciu). The two tracks each hold with probability
// 1−δ/2, so the variance interval holds with probability 1−δ by the
// union bound.
func varFrom(mean, sq ci.Interval, cap float64) ci.Interval {
	maxSq := math.Max(mean.Lo*mean.Lo, mean.Hi*mean.Hi)
	minSq := 0.0
	if mean.Lo > 0 || mean.Hi < 0 {
		minSq = math.Min(mean.Lo*mean.Lo, mean.Hi*mean.Hi)
	}
	lo := stats.Clamp(sq.Lo-maxSq, 0, cap)
	hi := stats.Clamp(sq.Hi-minSq, 0, cap)
	est := stats.Clamp(sq.Estimate-mean.Estimate*mean.Estimate, lo, hi)
	return ci.Interval{Lo: lo, Hi: hi, Estimate: est, Samples: mean.Samples}
}

// closeRound recomputes this view's intervals for optional-stopping
// round k and intersects them into the running bests. The view budget
// is Bonferroni-split evenly across the SELECT list (N aggregates each
// run at δ_view/N), so the per-round joint guarantee over every
// reported interval still telescopes to δ_view; a 1-element list spends
// exactly the single-aggregate engine's budget and reproduces its
// arithmetic bit for bit.
func (gs *groupState) closeRound(k int, coveredAll int, cfg roundConfig) {
	if gs.exact {
		return
	}
	r := gs.covered(coveredAll)
	if r <= 0 {
		return
	}
	deltaAgg := cfg.deltaView / float64(len(cfg.specs))
	deltaRound := core.RoundDelta(deltaAgg, k)
	for i := range cfg.specs {
		gs.aggs[i].closeRound(&cfg.specs[i], gs.tracks, gs.mv, r, &cfg, deltaRound)
	}
}

// closeRound recomputes one aggregate's intervals for the round from
// its (possibly shared) tracks. Every bounder's Lower/Upper is a pure
// read of its state, so a track shared by several members answers each
// of them at its own δ exactly as a private copy would.
func (as *aggState) closeRound(sp *aggSpec, tracks []track, mv, r int, cfg *roundConfig, deltaRound float64) {
	x := &tracks[sp.tr]
	switch sp.kind {
	case query.Avg, query.Sum, query.Count:
		avgDelta, countDelta := deltaRound, deltaRound
		if sp.kind == query.Sum {
			// SUM needs both the COUNT and the AVG interval to hold
			// jointly (§4.1): split the round budget between them.
			avgDelta, countDelta = deltaRound/2, deltaRound/2
		}
		if cfg.knownN {
			// The view is the whole scramble: N is known exactly.
			intersect(&as.bestCount, ci.Interval{
				Lo: float64(cfg.bigR), Hi: float64(cfg.bigR),
				Estimate: float64(cfg.bigR), Samples: r,
			})
		} else {
			intersect(&as.bestCount, countInterval(r, cfg.bigR, mv, countDelta))
		}
		intersect(&as.bestAvg, avgTrack(x.state, sp.a, sp.b, mv, r, cfg, avgDelta))
		as.bestSum = sumInterval(as.bestCount, as.bestAvg)

	case query.Median, query.Percentile:
		intersect(&as.bestCount, viewCountInterval(mv, r, cfg, deltaRound))
		if m := x.ecdf.Count(); m > 0 {
			eps := stats.DKWEpsilon(m, deltaRound)
			lo, hi := stats.QuantileCI(x.ecdf.Sorted(), sp.p, eps, sp.a, sp.b)
			intersect(&as.best, ci.Interval{
				Lo: lo, Hi: hi,
				Estimate: x.ecdf.Quantile(sp.p), Samples: m,
			})
		}

	case query.Var, query.Stddev:
		intersect(&as.bestCount, viewCountInterval(mv, r, cfg, deltaRound))
		// Half the aggregate's round budget per mean track; the
		// variance interval below then holds at deltaRound jointly.
		intersect(&as.bestAvg, avgTrack(x.state, sp.a, sp.b, mv, r, cfg, deltaRound/2))
		intersect(&as.bestSq, avgTrack(tracks[sp.tr2].state, sp.a2, sp.b2, mv, r, cfg, deltaRound/2))
		intersect(&as.best, varFrom(as.bestAvg, as.bestSq, sp.varCap()))
		as.bestSum = sumInterval(as.bestCount, as.bestAvg)

	case query.CountDistinct:
		intersect(&as.bestCount, viewCountInterval(mv, r, cfg, deltaRound))
		// Every observed code is certain: d is a deterministic lower
		// bound. Unseen distinct values are capped both by the unseen
		// codes of the dictionary and by the view rows not yet observed
		// under the (1−δ′) view-size upper bound.
		d := float64(x.distinct)
		unseenRows := math.Max(0, math.Floor(as.bestCount.Hi)-float64(mv))
		unseenCodes := float64(sp.dictSize) - d
		intersect(&as.best, ci.Interval{
			Lo:       d,
			Hi:       d + math.Min(unseenRows, unseenCodes),
			Estimate: d,
			Samples:  mv,
		})
	}
}

// viewCountInterval is the per-round view-size interval shared by the
// sketch aggregates (quantile, variance, distinct): exact when N is
// known, Lemma 5 otherwise.
func viewCountInterval(mv, r int, cfg *roundConfig, delta float64) ci.Interval {
	if cfg.knownN {
		return ci.Interval{
			Lo: float64(cfg.bigR), Hi: float64(cfg.bigR),
			Estimate: float64(cfg.bigR), Samples: r,
		}
	}
	return countInterval(r, cfg.bigR, mv, delta)
}

// finalizeExact collapses the intervals onto the exact answers once the
// whole view has been observed (covered == R). Mean-track intervals
// keep a tiny slack covering worst-case floating-point summation error
// — (n−1)·u·Σ|x| for naive summation — so the mathematical truth is
// still enclosed regardless of accumulation order; order statistics and
// distinct counts are exact integers/selections and collapse to points.
func (gs *groupState) finalizeExact(specs []aggSpec, bigR int) {
	gs.exact = true
	cnt := float64(gs.mv)
	const ulp = 0x1p-52
	for i := range specs {
		sp := &specs[i]
		as := &gs.aggs[i]
		x := &gs.tracks[sp.tr]
		as.bestCount = ci.Interval{Lo: cnt, Hi: cnt, Estimate: cnt, Samples: bigR}
		switch sp.kind {
		case query.Median, query.Percentile:
			if gs.mv > 0 {
				q := x.ecdf.Quantile(sp.p)
				as.best = ci.Interval{Lo: q, Hi: q, Estimate: q, Samples: gs.mv}
			} else {
				as.best = ci.Interval{Samples: gs.mv}
			}
		case query.CountDistinct:
			d := float64(x.distinct)
			as.best = ci.Interval{Lo: d, Hi: d, Estimate: d, Samples: gs.mv}
		case query.Var, query.Stddev:
			sq := &gs.tracks[sp.tr2]
			as.bestAvg = exactMean(x.sum, x.absSum, gs.mv, cnt*ulp*x.absSum)
			as.bestSq = exactMean(sq.sum, sq.absSum, gs.mv, cnt*ulp*sq.absSum)
			as.best = varFrom(as.bestAvg, as.bestSq, sp.varCap())
		default:
			sumSlack := cnt * ulp * x.absSum
			as.bestAvg = exactMean(x.sum, x.absSum, gs.mv, sumSlack)
			as.bestSum = ci.Interval{Lo: x.sum - sumSlack, Hi: x.sum + sumSlack, Estimate: x.sum, Samples: gs.mv}
		}
	}
	gs.active = false
}

// exactMean builds the collapsed-with-float-slack mean interval of a
// fully observed view.
func exactMean(sum, absSum float64, mv int, sumSlack float64) ci.Interval {
	mean, meanSlack := 0.0, 0.0
	if mv > 0 {
		mean = sum / float64(mv)
		meanSlack = sumSlack / float64(mv)
	}
	return ci.Interval{Lo: mean - meanSlack, Hi: mean + meanSlack, Estimate: mean, Samples: mv}
}
