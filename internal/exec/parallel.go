package exec

import "sync"

// This file implements the partitioned parallel execution path
// (Options.Parallelism ≥ 2). The paper's round-based scramble scan is
// embarrassingly partitionable: which blocks a round spans is a pure
// function of the layout (every visited block advances coverage by its
// row count whether fetched, pruned, or skipped), and inside a round
// the fetch/skip decision depends only on state frozen at the previous
// round barrier. Each round therefore proceeds in three steps:
//
//  1. The coordinator walks the cursor to collect the round's block
//     span and splits it into P contiguous partitions.
//  2. P workers scan their partitions with no shared mutable state,
//     bucketing matching rows' (group, value) observations in scan
//     order into per-shard buffers and counting coverage (roundAccum).
//  3. At the round barrier the coordinator merges the integer counters
//     (exact, order-insensitive), and P workers replay the buffered
//     observations into the group states — worker s owns the groups of
//     shard s and applies their observations walking partitions in
//     scan order, so every bounder state receives exactly the update
//     sequence the sequential scan would have issued.
//
// Only then do the bounder/stopping computations of closeRound run,
// exactly as in the sequential path. Results — estimates, intervals,
// rounds consumed, blocks fetched — are bit-identical to sequential
// execution for a fixed scramble, so the (1−δ) optional-stopping
// guarantee carries over unchanged.
//
// Cancellation is checked at round barriers only (the same abort path
// as the sequential engine): workers always drain their bounded
// partition before the coordinator acts, which keeps cancellation
// latency under one round and never leaks a goroutine.

// minParallelCloseGroups is the group count below which the per-round
// bound recomputation stays on the coordinator (goroutine fan-out
// would cost more than the loop).
const minParallelCloseGroups = 64

// runParallel is the partitioned counterpart of run.
func (e *engine) runParallel() {
	accs := make([]*roundAccum, e.par)
	bs := e.layout.BlockSize
	for i := range accs {
		accs[i] = &roundAccum{
			views:   e.cols.newViewSet(),
			rowVals: make([]float64, len(e.inputs)),
		}
		if e.vectorOK {
			accs[i].sel = make([]int32, 0, bs)
			accs[i].valsIn = make([][]float64, len(e.inputs))
			for k := range accs[i].valsIn {
				accs[i].valsIn[k] = make([]float64, 0, bs)
			}
			if !e.grp.isGlobal() {
				accs[i].gids = make([]int32, bs)
			}
		}
	}
	var blocks []int
	for {
		// Collect the round's block span. Coverage advances by every
		// visited block's row count regardless of fetch/prune/skip, so
		// the span is a pure layout computation and identical to the
		// block sequence the sequential loop would visit this round.
		blocks = blocks[:0]
		closeAfter := false
		for {
			b := e.cursor.Next()
			if b == -1 {
				break
			}
			start, end := e.layout.BlockBounds(b)
			blocks = append(blocks, b)
			e.totalCovered += end - start
			if e.totalCovered >= e.nextRoundAt {
				closeAfter = true
				break
			}
			if e.opts.MaxRows > 0 && e.totalCovered >= e.opts.MaxRows {
				break
			}
		}
		if len(blocks) == 0 {
			break // scramble exhausted
		}
		e.scanRound(blocks, accs)
		if e.ioErr != nil {
			return
		}
		if closeAfter {
			e.closeRound()
			if e.stopped {
				return
			}
		}
		if e.opts.MaxRows > 0 && e.totalCovered >= e.opts.MaxRows {
			return
		}
	}
	// Exhausted the scramble: mirror run's exact finalization.
	e.finalizeExhausted()
}

// scanRound scans one round's block span with P workers and merges
// their accumulators at the round barrier.
func (e *engine) scanRound(blocks []int, accs []*roundAccum) {
	p := len(accs)
	per := (len(blocks) + p - 1) / p
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		acc := accs[w]
		acc.reset(p, len(e.inputs))
		lo := min(w*per, len(blocks))
		hi := min(lo+per, len(blocks))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(seg []int, acc *roundAccum) {
			defer wg.Done()
			e.scanPartition(seg, acc)
		}(blocks[lo:hi], acc)
	}
	wg.Wait()

	// An out-of-core read failure in any partition aborts the scan
	// before counters merge or observations replay: a partially-observed
	// round must not move any bounder state.
	for _, acc := range accs {
		if acc.err != nil {
			e.ioErr = acc.err
			return
		}
	}

	// Round barrier, step one: fold the integer coverage counters.
	var m roundAccum
	for _, acc := range accs {
		m.Merge(acc)
	}
	e.coveredAll += m.coveredAll
	e.cursor.AddFetched(m.fetched)
	if m.quarantined > 0 {
		e.degraded = true
		e.quarantined += m.quarantined
	}
	if m.skipped > 0 {
		// Blocks skipped by active scanning resolve membership only for
		// the groups that were active, exactly as the sequential step.
		for _, gs := range e.ordered {
			if gs.active {
				gs.extra += m.skipped
			}
		}
	}

	// Step two: sharded replay. Worker s owns the group states of
	// shard s and walks the partitions in scan order, so each state
	// sees its observations in the sequential order. Consecutive
	// observations of one group replay as a single observeRun over the
	// shard's columnar buffers — the same value sequence with one
	// bounder dispatch per run instead of per observation.
	var rg sync.WaitGroup
	for s := 0; s < p; s++ {
		rg.Add(1)
		go func(s int) {
			defer rg.Done()
			for _, acc := range accs {
				sb := &acc.shards[s]
				for i := 0; i < len(sb.gids); {
					gid := sb.gids[i]
					j := i + 1
					for j < len(sb.gids) && sb.gids[j] == gid {
						j++
					}
					gs := e.states[gid]
					if !gs.exact {
						gs.observeRun(e.tracks, sb.vals, i, j)
					}
					i = j
				}
			}
		}(s)
	}
	rg.Wait()
}

// scanPartition processes one worker's contiguous block partition.
// It mirrors engine.step/fetch block for block, but buffers
// observations instead of touching shared state. Group active flags
// are only read (they change at round barriers, never inside a round),
// and the lookahead-free blockHasActiveGroupSync probe is used for
// both active strategies — see Options.Parallelism.
func (e *engine) scanPartition(seg []int, acc *roundAccum) {
	activeCheck := len(e.q.GroupBy) > 0 && e.opts.Strategy != Scan
	for _, b := range seg {
		start, end := e.layout.BlockBounds(b)
		n := end - start
		if !e.pred.blockPossible(b) {
			acc.coveredAll += n
			continue
		}
		if activeCheck && !e.blockHasActiveGroupSync(b) {
			acc.skipped += n
			continue
		}
		// Bind before crediting coverage: a quarantined block under
		// DegradedReads is skipped with its rows left unobserved (neither
		// coveredAll nor any group's skip credit), mirroring the
		// sequential fetch.
		if err := acc.views.bind(b); err != nil {
			if e.opts.DegradedReads && isBlockError(err) {
				acc.quarantined++
				continue
			}
			acc.err = err
			return
		}
		acc.fetched++
		acc.coveredAll += n
		e.scanBoundBlock(n, acc)
		acc.views.release()
	}
}

// scanBoundBlock processes the n local rows of the worker's bound block.
func (e *engine) scanBoundBlock(n int, acc *roundAccum) {
	if scalarKernel || !e.vectorOK {
		e.scanBlockScalar(n, acc)
		return
	}
	sel := e.pred.matchBlock(acc.views, n, acc.sel)
	acc.sel = sel
	if len(sel) == 0 {
		return
	}
	e.gatherInputsInto(acc.views, sel, acc.valsIn)
	if e.grp.isGlobal() {
		for i := range sel {
			acc.add(0, i)
		}
		return
	}
	gids := e.gatherGidsInto(acc.views, sel, acc.gids)
	for i := range sel {
		acc.add(int(gids[i]), i)
	}
}

// scanBlockScalar is the row-at-a-time reference for one partition
// block, mirroring fetchScalar with buffered observations over the
// worker's bound views.
func (e *engine) scanBlockScalar(n int, acc *roundAccum) {
	vs := acc.views
	for row := 0; row < n; row++ {
		if !e.pred.match(vs, row) {
			continue
		}
		gid := e.grp.groupOf(vs, row)
		e.evalRow(vs, row, acc.rowVals)
		acc.addRow(gid, acc.rowVals)
	}
}

// blockHasActiveGroupSync is the synchronous per-block, per-group
// bitmap probe shared by the sequential ActiveSync strategy and every
// parallel active scan.
func (e *engine) blockHasActiveGroupSync(b int) bool {
	for _, gs := range e.ordered {
		if gs.active && e.grp.blockContainsGroup(b, gs.codes) {
			return true
		}
	}
	return false
}

// closeGroups recomputes every view's intervals for the round being
// closed. With enough groups and parallelism the loop is split into
// contiguous shards closed concurrently: each group's bounds are a
// pure function of its own state and the shared integer coverage
// counts, so the concurrent loop is bit-identical to the sequential
// one.
func (e *engine) closeGroups() {
	if e.par < 2 || len(e.ordered) < minParallelCloseGroups {
		for _, gs := range e.ordered {
			gs.closeRound(e.round, e.coveredAll, e.cfg)
		}
		return
	}
	per := (len(e.ordered) + e.par - 1) / e.par
	var wg sync.WaitGroup
	for w := 0; w < e.par; w++ {
		lo := min(w*per, len(e.ordered))
		hi := min(lo+per, len(e.ordered))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(seg []*groupState) {
			defer wg.Done()
			for _, gs := range seg {
				gs.closeRound(e.round, e.coveredAll, e.cfg)
			}
		}(e.ordered[lo:hi])
	}
	wg.Wait()
}
