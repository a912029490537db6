package exec

import (
	"fastframe/internal/blockstore"
	"fastframe/internal/table"
)

// The executor's block-granular column seam. A query compiles against a
// colSet — the deduplicated set of columns it touches, each resolved to
// a table block accessor and a dense slot index — and every kernel
// (predicate, grouper, aggregate) refers to columns by slot. At scan
// time a viewSet binds one block of every column into slot-indexed
// slices with block-local row indexing: a subslice for resident tables,
// a pinned buffer-pool frame for out-of-core tables. The kernels are
// oblivious to the backing, observation order is untouched, and a warm
// bind/release cycle allocates nothing — which is how out-of-core
// scans keep the engine's byte-identical results and allocation-free
// steady-state rounds.

// colSet is the distinct columns a query reads, with float and
// categorical slots numbered independently.
type colSet struct {
	t *table.Table

	fnames  []string
	cnames  []string
	fblocks []table.FloatBlocks
	cblocks []table.CatBlocks
}

func newColSet(t *table.Table) *colSet {
	return &colSet{t: t}
}

// floatSlot resolves a float column to its slot, adding it on first use.
func (cs *colSet) floatSlot(name string) (int, error) {
	for i, n := range cs.fnames {
		if n == name {
			return i, nil
		}
	}
	fb, err := cs.t.FloatBlocks(name)
	if err != nil {
		return 0, err
	}
	cs.fnames = append(cs.fnames, name)
	cs.fblocks = append(cs.fblocks, fb)
	return len(cs.fnames) - 1, nil
}

// catSlot resolves a categorical column to its slot, adding it on first
// use.
func (cs *colSet) catSlot(name string) (int, error) {
	for i, n := range cs.cnames {
		if n == name {
			return i, nil
		}
	}
	cb, err := cs.t.CatBlocks(name)
	if err != nil {
		return 0, err
	}
	cs.cnames = append(cs.cnames, name)
	cs.cblocks = append(cs.cblocks, cb)
	return len(cs.cnames) - 1, nil
}

// viewSet is one scanner's bound views: fvals[slot]/cvals[slot] hold
// the currently bound block of each column, rows indexed 0..n-1. Each
// goroutine that scans blocks owns its own viewSet (the sequential
// engine, every parallel round worker); the underlying pool frames are
// shared and refcounted.
type viewSet struct {
	cs      *colSet
	fvals   [][]float64
	cvals   [][]uint32
	fframes []*blockstore.Frame
	cframes []*blockstore.Frame
}

func (cs *colSet) newViewSet() *viewSet {
	return &viewSet{
		cs:      cs,
		fvals:   make([][]float64, len(cs.fblocks)),
		cvals:   make([][]uint32, len(cs.cblocks)),
		fframes: make([]*blockstore.Frame, len(cs.fblocks)),
		cframes: make([]*blockstore.Frame, len(cs.cblocks)),
	}
}

// bind pins block b of every column in the set. On error, pins taken so
// far are released and no views are bound.
func (vs *viewSet) bind(b int) error {
	for i := range vs.cs.fblocks {
		v, f, err := vs.cs.fblocks[i].Pin(b)
		if err != nil {
			vs.release()
			return err
		}
		vs.fvals[i], vs.fframes[i] = v, f
	}
	for i := range vs.cs.cblocks {
		v, f, err := vs.cs.cblocks[i].Pin(b)
		if err != nil {
			vs.release()
			return err
		}
		vs.cvals[i], vs.cframes[i] = v, f
	}
	return nil
}

// release unpins every bound frame. The view slices must not be used
// afterwards until the next bind. Safe to call twice.
func (vs *viewSet) release() {
	for i, f := range vs.fframes {
		if f != nil {
			vs.cs.fblocks[i].Unpin(f)
			vs.fframes[i] = nil
		}
	}
	for i, f := range vs.cframes {
		if f != nil {
			vs.cs.cblocks[i].Unpin(f)
			vs.cframes[i] = nil
		}
	}
}
