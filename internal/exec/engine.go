package exec

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"fastframe/internal/bitmap"
	"fastframe/internal/blockstore"
	"fastframe/internal/expr"
	"fastframe/internal/query"
	"fastframe/internal/scramble"
	"fastframe/internal/table"
)

// Run executes an approximate aggregate query against a scramble and
// returns per-view confidence intervals satisfying the query's total
// error budget (Options.Delta), terminating as early as the stopping
// condition allows.
func Run(t *table.Table, q query.Query, opts Options) (*Result, error) {
	return RunContext(context.Background(), t, q, opts)
}

// RunContext is Run with cancellation: the context is checked at every
// round boundary, and a cancelled or expired context ends the scan via
// the same path as an OnRound abort — the partial Result is returned
// with Aborted set and its intervals remain valid (1−δ) CIs at the
// point the scan stopped, by the optional-stopping construction. A
// context that is already done before any work starts returns ctx.Err()
// instead.
func RunContext(ctx context.Context, t *table.Table, q query.Query, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Bounder == nil {
		return nil, errors.New("exec: Options.Bounder is required")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}

	e, err := newEngine(t, q, opts)
	if err != nil {
		return nil, err
	}
	e.ctx = ctx
	start := time.Now()
	if e.par >= 2 {
		e.runParallel()
	} else {
		e.run()
	}
	if e.ioErr != nil {
		// An out-of-core read failed mid-scan. Partial intervals over
		// partially-read blocks have no (1−δ) story, so the scan surfaces
		// the I/O error instead of a Result.
		return nil, e.ioErr
	}
	res := e.result()
	res.Duration = time.Since(start)
	return res, nil
}

type engine struct {
	q    query.Query
	opts Options
	ctx  context.Context

	// The SELECT list, resolved against the colSet: inputs is the
	// deduplicated set of per-row values the scan gathers (each float
	// column, expression kernel, categorical code stream, or derived
	// square read/computed once per block regardless of how many
	// aggregates consume it), tracks is the deduplicated set of
	// per-group sketches over those inputs (each fed once per row
	// however many aggregates read it), and aggs describes each
	// aggregate of the list — its kind, which tracks feed it, and its
	// catalog bounds.
	inputs []inputSpec
	tracks []trackSpec
	aggs   []aggSpec

	pred *compiledPred
	grp  *grouper
	cfg  roundConfig
	par  int // scan workers; ≥ 2 selects the partitioned path

	// cols is the deduplicated set of columns this query touches; views
	// is the sequential scan's bound per-block views (parallel workers
	// own their own viewSets in roundAccum). ioErr records the first
	// out-of-core read failure; the scan aborts on it and RunContext
	// surfaces it instead of a Result — unless Options.DegradedReads is
	// set, in which case quarantined blocks are skipped with their rows
	// left unobserved (degraded/quarantined track that) and only
	// non-block errors abort.
	cols        *colSet
	views       *viewSet
	ioErr       error
	degraded    bool
	quarantined int

	layout scramble.Layout
	cursor *scramble.Cursor

	// states is indexed by dense group ID (every potential group is
	// instantiated upfront, so a slice beats a map on the per-row path).
	states  []*groupState
	ordered []*groupState // same states in ID order, for iteration

	// coverage accounting: coveredAll counts rows whose membership is
	// known for every view (fetched rows and predicate-pruned rows);
	// rows in blocks skipped by active scanning are credited only to the
	// groups that were active (groupState.extra).
	coveredAll   int
	totalCovered int

	round       int
	nextRoundAt int
	numActive   int
	stopped     bool
	aborted     bool

	// ActivePeek machinery: two mask buffers alternate between "current
	// batch being read" and "next batch being marked by the worker".
	peek         *bitmap.Lookahead
	peekCol      int // GROUP BY column the lookahead keys on
	peekBufs     [2]*bitmap.Bitset
	peekCur      int // index into peekBufs of the current mask
	peekMask     *bitmap.Bitset
	peekStart    int // first block covered by peekMask; -1 if none
	peekLen      int // blocks covered by peekMask
	peekPending  bool
	pendingStart int // start block of the in-flight lookahead request
	pendingLen   int
	// peekSeen/peekCodeBufs are the allocation-free form of the active
	// code snapshot: a dense dedup table indexed by dictionary code and
	// two code buffers alternating with the mask buffers (the lookahead
	// worker reads a request's codes until Wait returns, so the buffer
	// being refilled is always the one no request is reading).
	peekSeen     []bool
	peekCodeBufs [2][]uint32

	// Vectorized-kernel scratch, sized once to the block size and reused
	// for every fetched block — nothing is allocated inside the scan
	// loop. The parallel path gives each worker its own copies (in
	// roundAccum); these belong to the sequential scan.
	sel     []int32     // selection vector: matching row indices of a block
	valsIn  [][]float64 // gathered input values of the selected rows, per input
	gids    []int32     // per-selected-row dense group IDs
	rowVals []float64   // scalar path: one row's input values

	// vectorOK gates the columnar kernel: the selection vector holds row
	// indices and group IDs in int32 (denser scratch, faster scans), so
	// tables or GROUP BY code spaces beyond 2³¹ fall back to the scalar
	// reference kernel.
	vectorOK bool

	stopScr stopScratch // refreshActive's reusable sort buffers
}

// scalarKernel forces the row-at-a-time reference interpreter in place
// of the vectorized block kernel. It exists for the kernel-equivalence
// property tests, which pin the two paths byte-identical; only tests
// set it, before any engine runs.
var scalarKernel = false

// addInput appends an input to the deduplicated gather list, reusing an
// existing entry when an identical one is already gathered (kernels are
// never deduplicated — closures aren't comparable — but column, code,
// constant, and square inputs are).
func (e *engine) addInput(spec inputSpec) int {
	if spec.kind != inKernel {
		for i, s := range e.inputs {
			if s.kind == spec.kind && s.slot == spec.slot && s.src == spec.src {
				return i
			}
		}
	}
	e.inputs = append(e.inputs, spec)
	return len(e.inputs) - 1
}

// addTrack returns the index of the group track of the given kind over
// input in, appending it when no earlier SELECT-list member owns one.
// Tracks over the same deduplicated input see the same value sequence,
// so one copy serves every member that reads it.
func (e *engine) addTrack(spec trackSpec) int {
	for i, s := range e.tracks {
		if s.kind == spec.kind && s.in == spec.in {
			return i
		}
	}
	e.tracks = append(e.tracks, spec)
	return len(e.tracks) - 1
}

// squareBounds returns catalog bounds for x² given x ∈ [a, b].
func squareBounds(a, b float64) (float64, float64) {
	hi := math.Max(a*a, b*b)
	if a <= 0 && b >= 0 {
		return 0, hi
	}
	return math.Min(a*a, b*b), hi
}

// resolveAggs compiles the SELECT list: one aggSpec per aggregate,
// referencing deduplicated group tracks over deduplicated gather inputs.
func (e *engine) resolveAggs(t *table.Table, list []query.Aggregate) error {
	for _, a := range list {
		sp := aggSpec{kind: a.Kind, tr2: -1, p: a.Quantile()}
		switch a.Kind {
		case query.Count:
			in := e.addInput(inputSpec{kind: inOne})
			sp.tr = e.addTrack(trackSpec{kind: trMean, in: in})
			sp.a, sp.b = 0, 1 // selectivity bounds; AVG interval unused
		case query.CountDistinct:
			col, err := t.Cat(a.Column)
			if err != nil {
				return err
			}
			slot, err := e.cols.catSlot(a.Column)
			if err != nil {
				return err
			}
			in := e.addInput(inputSpec{kind: inCatCode, slot: slot})
			sp.dictSize = col.NumValues()
			sp.tr = e.addTrack(trackSpec{kind: trDistinct, in: in, dictSize: sp.dictSize})
			sp.a, sp.b = 0, math.Max(0, float64(sp.dictSize-1))
		default:
			var in int
			if a.Expr != nil {
				// Expression aggregate: compile a slot-indexed kernel and
				// derive range bounds from the referenced columns' catalog
				// bounds (Appendix B; always sound, corner-tight for
				// monotone/convex).
				kern, err := expr.CompileKernel(a.Expr, e.cols.floatSlot)
				if err != nil {
					return err
				}
				vars := map[string]bool{}
				a.Expr.Vars(vars)
				boxes := map[string]expr.Box{}
				for name := range vars {
					rb, err := t.Bounds(name)
					if err != nil {
						return err
					}
					boxes[name] = expr.Box{Lo: rb.A, Hi: rb.B}
				}
				box, err := expr.DeriveBounds(a.Expr, boxes)
				if err != nil {
					return err
				}
				in = e.addInput(inputSpec{kind: inKernel, kernel: kern})
				sp.a, sp.b = box.Lo, box.Hi
			} else {
				slot, err := e.cols.floatSlot(a.Column)
				if err != nil {
					return err
				}
				rb, err := t.Bounds(a.Column)
				if err != nil {
					return err
				}
				in = e.addInput(inputSpec{kind: inColumn, slot: slot})
				sp.a, sp.b = rb.A, rb.B
			}
			switch a.Kind {
			case query.Median, query.Percentile:
				sp.tr = e.addTrack(trackSpec{kind: trECDF, in: in})
			case query.Var, query.Stddev:
				sp.tr = e.addTrack(trackSpec{kind: trMean, in: in})
				in2 := e.addInput(inputSpec{kind: inSquare, src: in})
				sp.tr2 = e.addTrack(trackSpec{kind: trMean, in: in2})
				sp.a2, sp.b2 = squareBounds(sp.a, sp.b)
			default:
				sp.tr = e.addTrack(trackSpec{kind: trMean, in: in})
			}
		}
		e.aggs = append(e.aggs, sp)
	}
	return nil
}

func newEngine(t *table.Table, q query.Query, opts Options) (*engine, error) {
	e := &engine{q: q, opts: opts, layout: t.Layout()}
	e.cols = newColSet(t)
	e.par = opts.Parallelism
	if e.par < 1 {
		e.par = 1
	}
	// A worker needs at least one block to scan each round; more workers
	// than round blocks would only idle.
	if nb := e.layout.NumBlocks(); e.par > nb && nb > 0 {
		e.par = nb
	}

	if err := e.resolveAggs(t, q.AggList()); err != nil {
		return nil, err
	}

	pred, err := compilePredicate(t, q.Pred, e.cols)
	if err != nil {
		return nil, err
	}
	e.pred = pred

	grp, err := newGrouper(t, q.GroupBy, e.cols)
	if err != nil {
		return nil, err
	}
	e.grp = grp

	e.cfg.specs = e.aggs
	e.cfg.bigR = t.NumRows()
	e.cfg.knownN = pred.matchAll() && len(q.GroupBy) == 0
	e.cfg.alpha = opts.Alpha
	e.cfg.deltaView = opts.Delta / float64(grp.numGroups())
	e.cfg.exactCount = opts.ExactCountBounds

	// Instantiate every potential view upfront: the single global view
	// for ungrouped queries, or one view per dictionary combination for
	// GROUP BY queries. An unobserved group keeps its trivial [A, B]
	// interval and therefore blocks every stopping condition until it is
	// sampled or its view is provably empty (full coverage with zero
	// matches) — stopping over a provisional group set would risk the
	// subset errors (§1) the paper's guarantees exclude. Memory is O(G)
	// with G the product of the GROUP BY dictionary sizes.
	e.states = make([]*groupState, grp.numGroups())
	for id := range e.states {
		e.states[id] = newGroupState(id, grp.codesOf(id), opts.Bounder, e.tracks, e.aggs, e.cfg.bigR)
	}
	e.ordered = e.states

	// Kernel scratch: one selection vector, value buffer and group-ID
	// buffer sized to the block, allocated here and never inside the
	// scan loop. int32 scratch caps the vector path at 2³¹ rows/groups;
	// beyond that the scalar reference kernel takes over.
	bs := e.layout.BlockSize
	e.vectorOK = t.NumRows() <= math.MaxInt32 && grp.total <= math.MaxInt32
	if e.vectorOK {
		e.sel = make([]int32, 0, bs)
		e.valsIn = make([][]float64, len(e.inputs))
		for k := range e.valsIn {
			e.valsIn[k] = make([]float64, 0, bs)
		}
		if !grp.isGlobal() {
			e.gids = make([]int32, bs)
		}
	}
	e.rowVals = make([]float64, len(e.inputs))

	startBlock := opts.StartBlock
	if opts.Rng != nil && e.layout.NumBlocks() > 0 {
		startBlock = opts.Rng.IntN(e.layout.NumBlocks())
	}
	e.cursor = scramble.NewCursor(e.layout, startBlock)
	e.nextRoundAt = opts.RoundRows
	e.numActive = len(e.ordered)

	if len(q.GroupBy) > 0 && opts.Strategy == ActivePeek && e.par < 2 {
		// Key the lookahead on the most selective GROUP BY column (the
		// one with the largest dictionary): per-block presence of its
		// values is rarest, so its mask skips the most blocks. For
		// composite groups the mask is a conservative superset check.
		e.peekCol = 0
		for i := 1; i < len(grp.indexes); i++ {
			if grp.indexes[i].NumValues() > grp.indexes[e.peekCol].NumValues() {
				e.peekCol = i
			}
		}
		e.peek = bitmap.NewLookahead(grp.indexes[e.peekCol])
		e.peekBufs[0] = bitmap.NewBitset(bitmap.LookaheadBatchBlocks)
		e.peekBufs[1] = bitmap.NewBitset(bitmap.LookaheadBatchBlocks)
		nv := grp.indexes[e.peekCol].NumValues()
		e.peekSeen = make([]bool, nv)
		e.peekCodeBufs[0] = make([]uint32, 0, nv)
		e.peekCodeBufs[1] = make([]uint32, 0, nv)
		e.peekStart = -1
	}

	// All slots are resolved; materialize the sequential scan's viewSet.
	// (Parallel round workers build their own from the same colSet.)
	e.views = e.cols.newViewSet()
	return e, nil
}

func (e *engine) run() {
	defer func() {
		if e.peek != nil {
			e.peek.Close()
		}
	}()
	for {
		b := e.cursor.Next()
		if b == -1 {
			break
		}
		e.step(b)
		if e.ioErr != nil {
			return
		}
		if e.totalCovered >= e.nextRoundAt {
			e.closeRound()
			if e.stopped {
				return
			}
		}
		if e.opts.MaxRows > 0 && e.totalCovered >= e.opts.MaxRows {
			return
		}
	}
	e.finalizeExhausted()
}

// finalizeExhausted runs when the scan walked the whole scramble: every
// still-active view has been fully observed (blocks were only skipped
// when they provably contained none of its rows), so its answer is
// exact.
func (e *engine) finalizeExhausted() {
	for _, gs := range e.ordered {
		if gs.covered(e.coveredAll) == e.cfg.bigR {
			gs.finalizeExact(e.aggs, e.cfg.bigR)
		}
	}
}

// sharedStep advances this engine by exactly one block of the shared
// driver's circulating scan. It is the body of run's loop — same
// statements, same order — so a query stepped by the driver from its
// admission block traverses the identical state sequence as a solo run
// started at that block. done reports that the query is finished
// (stopped, row-capped, or exhausted) and must detach; roundClosed
// reports that a round barrier was crossed, which is the driver's
// admission point for newly-arrived queries.
func (e *engine) sharedStep() (roundClosed, done bool) {
	b := e.cursor.Next()
	if b == -1 {
		// Degenerate layouts only (zero blocks): the exhaustion check
		// below fires before the cursor can run dry mid-scan.
		e.finalizeExhausted()
		return false, true
	}
	e.step(b)
	if e.ioErr != nil {
		return false, true
	}
	if e.totalCovered >= e.nextRoundAt {
		e.closeRound()
		roundClosed = true
		if e.stopped {
			return roundClosed, true
		}
	}
	if e.opts.MaxRows > 0 && e.totalCovered >= e.opts.MaxRows {
		return roundClosed, true
	}
	if e.cursor.Exhausted() {
		// Mirrors run: the loop iteration after the last block sees
		// Next() == -1 and finalizes — unless a round stop or MaxRows
		// returned first, which the checks above already replicated.
		e.finalizeExhausted()
		return roundClosed, true
	}
	return roundClosed, false
}

// step decides whether to fetch block b, processes or credits it, and
// maintains coverage counters.
func (e *engine) step(b int) {
	s, end := e.layout.BlockBounds(b)
	n := end - s

	// Static predicate pruning applies to every strategy: a pruned
	// block provably contains no view rows for any group.
	if !e.pred.blockPossible(b) {
		e.coveredAll += n
		e.totalCovered += n
		return
	}

	if len(e.q.GroupBy) > 0 && e.opts.Strategy != Scan && !e.blockHasActiveGroup(b) {
		// Active-scan skip: the block has no rows of any active group.
		e.totalCovered += n
		for _, gs := range e.ordered {
			if gs.active {
				gs.extra += n
			}
		}
		return
	}

	if e.fetch(b, s, end) {
		e.coveredAll += n
	}
	e.totalCovered += n
}

// fetch reads block b through the vectorized kernel: the block's column
// views are bound (a subslice for resident tables, pinned pool frames
// for out-of-core ones), the predicate is evaluated column-at-a-time
// into the engine's selection vector, the aggregate inputs of the
// survivors are gathered into a value buffer, and consecutive
// same-group runs are fed to the bounder states through one
// observeBatch dispatch per run — the same sequential recurrence as the
// row-at-a-time reference, hence byte-identical intervals.
//
// The return value reports whether the block's rows were observed: a
// bind failure on a quarantined block under DegradedReads skips the
// block (false), leaving its rows unobserved. The caller then advances
// only totalCovered, never coveredAll or any group's extra credit, so
// the existing unknown-view-size machinery (N⁺ bounds, varCap
// worst-case contribution) keeps every interval conservatively valid —
// the skipped rows are accounted exactly like rows the scan has not
// reached yet, and exact finalization can never fire over them.
func (e *engine) fetch(b, start, end int) bool {
	if err := e.views.bind(b); err != nil {
		if e.opts.DegradedReads && isBlockError(err) {
			e.degraded = true
			e.quarantined++
			return false
		}
		e.ioErr = err
		return false
	}
	e.cursor.Fetch(b)
	e.fetchBound(end - start)
	e.views.release()
	return true
}

// isBlockError reports whether err is a classified storage-block
// failure — the only kind degraded reads may skip (anything else is a
// logic error that must abort).
func isBlockError(err error) bool {
	var be *blockstore.BlockError
	return errors.As(err, &be)
}

// fetchBound processes the bound block's n local rows.
func (e *engine) fetchBound(n int) {
	if scalarKernel || !e.vectorOK {
		e.fetchScalar(n)
		return
	}
	sel := e.pred.matchBlock(e.views, n, e.sel)
	e.sel = sel
	if len(sel) == 0 {
		return
	}
	e.gatherInputsInto(e.views, sel, e.valsIn)
	if e.grp.isGlobal() {
		gs := e.states[0]
		if !gs.exact {
			gs.observeRun(e.tracks, e.valsIn, 0, len(sel))
		}
		return
	}
	gids := e.gatherGidsInto(e.views, sel, e.gids)
	for i := 0; i < len(sel); {
		gid := gids[i]
		j := i + 1
		for j < len(sel) && gids[j] == gid {
			j++
		}
		gs := e.states[gid]
		if !gs.exact {
			gs.observeRun(e.tracks, e.valsIn, i, j)
		}
		i = j
	}
}

// fetchScalar is the seed row-at-a-time interpreter, kept as the
// reference the property tests pin the vectorized kernel against and as
// the fallback for tables whose row or group space overflows int32.
// Rows are block-local indices into the bound views.
func (e *engine) fetchScalar(n int) {
	vs := e.views
	for row := 0; row < n; row++ {
		if !e.pred.match(vs, row) {
			continue
		}
		gs := e.states[e.grp.groupOf(vs, row)]
		if gs.exact {
			continue
		}
		e.evalRow(vs, row, e.rowVals)
		gs.observeRow(e.tracks, e.rowVals)
	}
}

// gatherInputsInto fills bufs[k] (reusing backing arrays) with input
// k's value for each selected row: a float column's bound view, a
// compiled expression kernel's output, 1 for COUNT, a categorical
// column's dictionary codes, or the square of an already-gathered
// input. Square inputs always follow their source in the list, so one
// left-to-right pass resolves every dependency.
func (e *engine) gatherInputsInto(vs *viewSet, sel []int32, bufs [][]float64) {
	for k := range e.inputs {
		in := &e.inputs[k]
		dst := bufs[k][:0]
		switch in.kind {
		case inColumn:
			src := vs.fvals[in.slot]
			for _, r := range sel {
				dst = append(dst, src[r])
			}
		case inKernel:
			for _, r := range sel {
				dst = append(dst, in.kernel(vs.fvals, int(r)))
			}
		case inOne:
			for range sel {
				dst = append(dst, 1)
			}
		case inCatCode:
			src := vs.cvals[in.slot]
			for _, r := range sel {
				dst = append(dst, float64(src[r]))
			}
		case inSquare:
			for _, v := range bufs[in.src] {
				dst = append(dst, v*v)
			}
		}
		bufs[k] = dst
	}
}

// evalRow computes every input's value for one row of the bound views
// (the scalar counterpart of gatherInputsInto).
func (e *engine) evalRow(vs *viewSet, row int, rowVals []float64) {
	for k := range e.inputs {
		in := &e.inputs[k]
		switch in.kind {
		case inColumn:
			rowVals[k] = vs.fvals[in.slot][row]
		case inKernel:
			rowVals[k] = in.kernel(vs.fvals, row)
		case inOne:
			rowVals[k] = 1
		case inCatCode:
			rowVals[k] = float64(vs.cvals[in.slot][row])
		case inSquare:
			v := rowVals[in.src]
			rowVals[k] = v * v
		}
	}
}

// gatherGidsInto computes the dense group ID of each selected row
// column-at-a-time: one pass per GROUP BY column accumulating the
// mixed-radix code, instead of one multi-column walk per row.
func (e *engine) gatherGidsInto(vs *viewSet, sel []int32, dst []int32) []int32 {
	dst = dst[:len(sel)]
	for i := range dst {
		dst[i] = 0
	}
	for c, slot := range e.grp.slots {
		radix, codes := int32(e.grp.radix[c]), vs.cvals[slot]
		for i, r := range sel {
			dst[i] = dst[i]*radix + int32(codes[r])
		}
	}
	return dst
}

// blockHasActiveGroup implements the per-strategy skip check.
func (e *engine) blockHasActiveGroup(b int) bool {
	switch e.opts.Strategy {
	case ActiveSync:
		// Synchronous per-block, per-group bitmap probes (the
		// cache-unfriendly order the paper ablates).
		return e.blockHasActiveGroupSync(b)
	case ActivePeek:
		if e.peek != nil {
			return e.peekLookup(b)
		}
		// No lookahead worker (Parallelism ≥ 2, where ActivePeek already
		// degrades to round-synchronous probes): same decision, same
		// result, computed synchronously.
		return e.blockHasActiveGroupSync(b)
	default:
		return true
	}
}

// peekLookup consults the asynchronous lookahead mask for block b,
// requesting new batches as the scan crosses batch boundaries. Batches
// are 64-aligned so the worker can OR whole bitmap words. Masks are
// computed one batch ahead with the active set as of request time; a
// shrinking active set only makes the mask conservative (extra fetches,
// never missed coverage).
func (e *engine) peekLookup(b int) bool {
	if e.peekStart >= 0 && b >= e.peekStart && b < e.peekStart+e.peekLen {
		return e.peekMask.Get(b - e.peekStart)
	}
	// Need the batch containing b: take the pending one if it matches,
	// else mark it on demand (first batch, or after a wrap).
	start := b &^ 63
	count := bitmap.LookaheadBatchBlocks
	if start+count > e.layout.NumBlocks() {
		count = e.layout.NumBlocks() - start
	}
	if e.peekPending {
		mask := e.peek.Wait()
		e.peekPending = false
		if e.pendingStart == start {
			e.peekMask = mask
			e.peekStart = start
			e.peekLen = e.pendingLen
			e.peekCur = 1 - e.peekCur
		}
	}
	if e.peekStart != start {
		buf := e.peekBufs[1-e.peekCur]
		e.peek.Request(buf, start, count, e.activePeekCodes(1-e.peekCur))
		e.peekMask = e.peek.Wait()
		e.peekStart = start
		e.peekLen = count
		e.peekCur = 1 - e.peekCur
	}
	// Pre-request the next contiguous batch into the buffer the scan is
	// no longer reading (wrap-around restarts at block 0 on demand).
	nextStart := e.peekStart + e.peekLen
	if nextStart < e.layout.NumBlocks() {
		nextCount := bitmap.LookaheadBatchBlocks
		if nextStart+nextCount > e.layout.NumBlocks() {
			nextCount = e.layout.NumBlocks() - nextStart
		}
		e.peek.Request(e.peekBufs[1-e.peekCur], nextStart, nextCount, e.activePeekCodes(1-e.peekCur))
		e.peekPending = true
		e.pendingStart = nextStart
		e.pendingLen = nextCount
	}
	return e.peekMask.Get(b - e.peekStart)
}

// activePeekCodes snapshots the distinct codes of active groups in the
// lookahead's key column into the code buffer paired with the given
// mask buffer (the lookahead worker reads a request's codes until its
// Wait, so codes alternate buffers exactly as masks do — nothing is
// allocated, nothing races). For composite groups this is a superset
// check (conservative: may fetch extra blocks, never skips a block
// containing an active group).
func (e *engine) activePeekCodes(buf int) []uint32 {
	for i := range e.peekSeen {
		e.peekSeen[i] = false
	}
	codes := e.peekCodeBufs[buf][:0]
	for _, gs := range e.ordered {
		if gs.active && len(gs.codes) > 0 {
			c := gs.codes[e.peekCol]
			if !e.peekSeen[c] {
				e.peekSeen[c] = true
				codes = append(codes, c)
			}
		}
	}
	e.peekCodeBufs[buf] = codes
	return codes
}

func (e *engine) closeRound() {
	e.round++
	e.nextRoundAt += e.opts.RoundRows
	e.closeGroups()
	e.numActive = refreshActive(e.ordered, e.q.Stop, e.aggs, &e.stopScr)
	if e.numActive == 0 && e.q.Stop.Kind != query.StopExhaust {
		e.stopped = true
	}
	if e.opts.OnRound != nil {
		snap := RoundSnapshot{
			Round:             e.round,
			RowsCovered:       e.totalCovered,
			BlocksFetched:     e.cursor.BlocksFetched(),
			NumActive:         e.numActive,
			Degraded:          e.degraded,
			QuarantinedBlocks: e.quarantined,
			Groups:            e.snapshotGroups(),
		}
		if !e.opts.OnRound(snap) {
			e.aborted = true
			e.stopped = true
		}
	}
	// Context cancellation rides the abort path: the bounds recomputed
	// just above stay valid CIs wherever the scan stops.
	if !e.stopped && e.ctx != nil {
		select {
		case <-e.ctx.Done():
			e.aborted = true
			e.stopped = true
		default:
		}
	}
}

// groupResult snapshots one group's current per-aggregate intervals.
// The legacy Avg/Count/Sum triple reports the first aggregate, which is
// the whole list for single-aggregate queries.
func (e *engine) groupResult(gs *groupState) GroupResult {
	first := &gs.aggs[0]
	out := GroupResult{
		Key:     e.grp.keyOf(gs.id),
		Avg:     first.bestAvg,
		Count:   first.bestCount,
		Sum:     first.bestSum,
		Samples: gs.mv,
		Exact:   gs.exact,
	}
	out.Aggs = make([]AggAnswer, len(gs.aggs))
	for i := range gs.aggs {
		out.Aggs[i] = AggAnswer{
			Kind:     e.aggs[i].kind,
			Interval: gs.aggs[i].answer(&e.aggs[i]),
		}
	}
	return out
}

// snapshotGroups copies the observed groups' current intervals.
func (e *engine) snapshotGroups() []GroupResult {
	var out []GroupResult
	for _, gs := range e.ordered {
		if gs.mv == 0 {
			continue
		}
		out = append(out, e.groupResult(gs))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (e *engine) result() *Result {
	res := &Result{
		BlocksFetched:     e.cursor.BlocksFetched(),
		RowsCovered:       e.totalCovered,
		Rounds:            e.round,
		StartBlock:        e.cursor.Start(),
		Exhausted:         e.cursor.Exhausted(),
		Stopped:           e.stopped,
		Aborted:           e.aborted,
		Degraded:          e.degraded,
		QuarantinedBlocks: e.quarantined,
	}
	for _, gs := range e.ordered {
		if gs.mv == 0 {
			continue // views with no observed support are not reported
		}
		res.Groups = append(res.Groups, e.groupResult(gs))
	}
	sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i].Key < res.Groups[j].Key })
	return res
}
