package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"fastframe"
	"fastframe/internal/bitmap"
	"fastframe/internal/blockstore"
	"fastframe/internal/ci"
	"fastframe/internal/core"
	"fastframe/internal/stats"
)

// counters is a snapshot of the cumulative counters the program exposes,
// read before and after the timed phase.
type counters struct {
	planHits, planMisses int
	shared               fastframe.SharedScanStats
	pool                 fastframe.PoolStats
	allocBytes           float64
	gcCPU, totalCPU      float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapshot(eng *fastframe.Engine) counters {
	var c counters
	c.planHits, c.planMisses, _ = eng.PlanCacheStats()
	c.shared = eng.SharedScanStats()
	c.pool = eng.PoolStats()
	metrics.Read(runtimeSamples)
	c.allocBytes = float64(runtimeSamples[0].Value.Uint64())
	c.gcCPU = runtimeSamples[1].Value.Float64()
	c.totalCPU = runtimeSamples[2].Value.Float64()
	return c
}

// heapWatch samples the live heap every few milliseconds and keeps the
// highest reading.
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler, waits for it, and returns the peak in MB.
func (h *heapWatch) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// Replays time one layer's public functions on the workload's own table,
// read back from its persisted file. They use at most replayRows rows of
// the scramble, so that every workload replays the same amount of work.
const (
	replayRows  = 500_000
	roundRows   = 40_000 // the engine's default rows per round
	replayMin   = 150 * time.Millisecond
	replayDelta = 1e-15
)

type replayInput struct {
	store     *blockstore.Store
	delay     int // column index of DepDelay
	blocks    int // blocks covering the replayed rows
	values    []float64
	groups    []uint32 // Airline codes, aligned with values
	ngroups   int
	a, b      float64 // catalog bounds of DepDelay
	origin    *bitmap.BlockIndex
	nOrigin   int
	allBlocks int
}

func loadReplay(path string) (*replayInput, error) {
	s, err := blockstore.Open(path, blockstore.OpenOptions{})
	if err != nil {
		return nil, err
	}
	in := &replayInput{store: s, delay: -1}
	m := s.Meta()
	airline, origin := -1, -1
	for i, c := range m.Cols {
		switch c.Name {
		case "DepDelay":
			in.delay, in.a, in.b = i, c.BoundsLo, c.BoundsHi
		case "Airline":
			airline, in.ngroups = i, len(c.Dict)
		case "Origin":
			origin, in.nOrigin = i, len(c.Dict)
		}
	}
	if in.delay < 0 || airline < 0 || origin < 0 {
		s.Close()
		return nil, fmt.Errorf("%s: missing a Flights column", path)
	}
	in.allBlocks = m.NumBlocks()
	in.origin = bitmap.NewBlockIndexFromWords(m.Cols[origin].IndexWords, in.allBlocks)
	var fb []float64
	var cb []uint32
	var scratch []byte
	for b := 0; b < in.allBlocks && len(in.values) < replayRows; b++ {
		if fb, scratch, err = s.ReadFloatBlock(in.delay, b, fb, scratch); err == nil {
			cb, scratch, err = s.ReadCatBlock(airline, b, cb, scratch)
		}
		if err != nil {
			s.Close()
			return nil, err
		}
		in.values = append(in.values, fb...)
		in.groups = append(in.groups, cb...)
		in.blocks++
	}
	return in, nil
}

// perUnit runs f until replayMin has passed and returns the mean time
// per unit of work f reports, in ns. f returns the units it did and the
// time they took.
func perUnit(f func() (int, time.Duration)) float64 {
	var units int
	var spent time.Duration
	for t0 := time.Now(); time.Since(t0) < replayMin; {
		n, d := f()
		units += n
		spent += d
	}
	return float64(spent.Nanoseconds()) / float64(units)
}

// rounds splits the replayed rows into round-size batches, and each
// batch by Airline group.
func (in *replayInput) rounds() [][][]float64 {
	var out [][][]float64
	for off := 0; off < len(in.values); off += roundRows {
		end := min(off+roundRows, len(in.values))
		batch := make([][]float64, in.ngroups)
		for i := off; i < end; i++ {
			batch[in.groups[i]] = append(batch[in.groups[i]], in.values[i])
		}
		out = append(out, batch)
	}
	return out
}

var rangeTrim = core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}

// ciUpdateNs is the bounder's UpdateBatch cost per observation.
func (in *replayInput) ciUpdateNs() float64 {
	return perUnit(func() (int, time.Duration) {
		t0 := time.Now()
		s := rangeTrim.NewState()
		for off := 0; off < len(in.values); off += roundRows {
			s.UpdateBatch(in.values[off:min(off+roundRows, len(in.values))])
		}
		return len(in.values), time.Since(t0)
	})
}

// ciBoundNs is the cost of one Lower plus Upper call at a round close.
func (in *replayInput) ciBoundNs(rounds [][][]float64) float64 {
	p := ci.Params{A: in.a, B: in.b, N: len(in.values), Delta: replayDelta / float64(2*in.ngroups)}
	return perUnit(func() (int, time.Duration) {
		states := make([]ci.State, in.ngroups)
		for g := range states {
			states[g] = rangeTrim.NewState()
		}
		var spent time.Duration
		for _, batch := range rounds {
			for g, vs := range batch {
				states[g].UpdateBatch(vs)
			}
			t0 := time.Now()
			for _, s := range states {
				s.Lower(p)
				s.Upper(p)
			}
			spent += time.Since(t0)
		}
		return len(rounds) * in.ngroups, spent
	})
}

// ecdfRoundUs is the cost of one round of a grouped MEDIAN: each group's
// ECDF absorbs its batch, re-sorts, and inverts its DKW band.
func (in *replayInput) ecdfRoundUs(rounds [][][]float64) float64 {
	return perUnit(func() (int, time.Duration) {
		ecdfs := make([]stats.ECDF, in.ngroups)
		t0 := time.Now()
		for _, batch := range rounds {
			for g, vs := range batch {
				e := &ecdfs[g]
				e.AddAll(vs)
				eps := stats.DKWEpsilon(e.Count(), replayDelta/float64(in.ngroups))
				stats.QuantileCI(e.Sorted(), 0.5, eps, in.a, in.b)
			}
		}
		return len(rounds), time.Since(t0)
	}) / 1e3
}

// markNs is the bitmap lookahead's cost per block: which blocks of a
// round's span hold any of half the Origin groups.
func (in *replayInput) markNs() float64 {
	codes := make([]uint32, in.nOrigin/2)
	for i := range codes {
		codes[i] = uint32(i)
	}
	span := roundRows / max(1, in.store.Meta().BlockSize)
	mask := make([]bool, span)
	return perUnit(func() (int, time.Duration) {
		t0 := time.Now()
		for start := 0; start < in.allBlocks; start += span {
			in.origin.MarkBatch(mask, start, span, codes)
		}
		return in.allBlocks, time.Since(t0)
	})
}

// readUs is the cost of one physical block read: pread, CRC32C check and
// decode.
func (in *replayInput) readUs() (float64, error) {
	var err error
	var dst []float64
	var scratch []byte
	ns := perUnit(func() (int, time.Duration) {
		t0 := time.Now()
		for b := 0; b < in.blocks && err == nil; b++ {
			dst, scratch, err = in.store.ReadFloatBlock(in.delay, b, dst, scratch)
		}
		return in.blocks, time.Since(t0)
	})
	return ns / 1e3, err
}

// decodeNs is the cost of decoding one encoded float block.
func (in *replayInput) decodeNs() (float64, error) {
	bs := in.store.Meta().BlockSize
	var segs [][]byte
	for off := 0; off < len(in.values); off += bs {
		segs = append(segs, blockstore.AppendFloatBlock(nil, in.values[off:min(off+bs, len(in.values))]))
	}
	var err error
	dst := make([]float64, 0, bs)
	ns := perUnit(func() (int, time.Duration) {
		t0 := time.Now()
		for i, seg := range segs {
			n := min(bs, len(in.values)-i*bs)
			if dst, err = blockstore.DecodeFloatBlock(seg, dst, n); err != nil {
				break
			}
		}
		return len(segs), time.Since(t0)
	})
	return ns, err
}

// prepareUs is the cost of Engine.Prepare of each mix text on a fresh
// Engine, so that no plan-cache entry helps.
func prepareUs(mix []mixItem) (float64, error) {
	var err error
	ns := perUnit(func() (int, time.Duration) {
		var spent time.Duration
		for _, it := range mix {
			eng := fastframe.NewEngine()
			t0 := time.Now()
			_, e := eng.Prepare(it.sql)
			spent += time.Since(t0)
			if e != nil {
				err = e
			}
		}
		return len(mix), spent
	})
	return ns / 1e3, err
}

// bindUs is the cost of Stmt.Bind of each mix statement with each of its
// argument sets, against the workload's engine (star joins compile their
// key sets here).
func (st *state) bindUs() (float64, error) {
	var stmts []*fastframe.Stmt
	for _, it := range st.w.mix {
		s, err := st.eng.Prepare(it.sql)
		if err != nil {
			return 0, err
		}
		stmts = append(stmts, s)
	}
	var err error
	ns := perUnit(func() (int, time.Duration) {
		var n int
		t0 := time.Now()
		for i, s := range stmts {
			for _, args := range st.order[i] {
				if _, e := s.Bind(args...); e != nil {
					err = e
				}
				n++
			}
		}
		return n, time.Since(t0)
	})
	return ns / 1e3, err
}
