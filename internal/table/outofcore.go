package table

import (
	"fmt"

	"fastframe/internal/bitmap"
	"fastframe/internal/blockstore"
	"fastframe/internal/scramble"
)

// Out-of-core tables: a Table can be backed either by fully resident
// column slices (the Build/ReadTable paths) or by a format-v3 block
// store paged through a shared buffer pool. Both backings present the
// same metadata surface (schema, catalog, zone maps, bitmap indexes —
// always resident) and the same block-granular data access surface
// (FloatBlocks/CatBlocks below), so the executor is oblivious to where
// a block's bytes live.

// OpenStore opens a format-v3 file as an out-of-core table: header
// metadata loads resident (so planning, pruning and active-scan
// skipping work exactly as for in-memory tables), data blocks page
// through pool on demand. The table owns the store; Close releases it.
func OpenStore(path string, pool *blockstore.Pool, opts blockstore.OpenOptions) (*Table, error) {
	if pool == nil {
		return nil, fmt.Errorf("table: OpenStore needs a buffer pool")
	}
	s, err := blockstore.Open(path, opts)
	if err != nil {
		return nil, err
	}
	t, err := fromStoreMeta(s.Meta())
	if err != nil {
		s.Close()
		return nil, err
	}
	t.store = s
	t.pool = pool
	return t, nil
}

// fromStoreMeta builds the metadata-only table skeleton shared by
// OpenStore: every map is populated from the header, data slices stay
// nil.
func fromStoreMeta(m *blockstore.Meta) (*Table, error) {
	t := &Table{
		rows:    m.Rows,
		layout:  scramble.NewLayout(m.Rows, m.BlockSize),
		floats:  map[string]*FloatColumn{},
		cats:    map[string]*CatColumn{},
		indexes: map[string]*bitmap.BlockIndex{},
		catalog: map[string]RangeBounds{},
		zones:   map[string]*ZoneMap{},
	}
	nb := t.layout.NumBlocks()
	specs := make([]ColumnSpec, len(m.Cols))
	for ci, c := range m.Cols {
		switch c.Kind {
		case blockstore.KindFloat:
			specs[ci] = ColumnSpec{Name: c.Name, Kind: Float}
			t.floats[c.Name] = &FloatColumn{}
			t.catalog[c.Name] = RangeBounds{A: c.BoundsLo, B: c.BoundsHi}
			t.zones[c.Name] = &ZoneMap{Min: c.ZoneMin, Max: c.ZoneMax}
		case blockstore.KindCat:
			specs[ci] = ColumnSpec{Name: c.Name, Kind: Categorical}
			byValue := make(map[string]uint32, len(c.Dict))
			for d, s := range c.Dict {
				byValue[s] = uint32(d)
			}
			t.cats[c.Name] = &CatColumn{Dict: c.Dict, byValue: byValue}
			t.indexes[c.Name] = bitmap.NewBlockIndexFromWords(c.IndexWords, nb)
		default:
			return nil, fmt.Errorf("table: unknown column kind %d", c.Kind)
		}
	}
	schema, err := NewSchema(specs...)
	if err != nil {
		return nil, err
	}
	t.schema = schema
	return t, nil
}

// OutOfCore reports whether the table's data blocks live in a block
// store (true) or in resident slices (false).
func (t *Table) OutOfCore() bool { return t.store != nil }

// Pool returns the buffer pool of an out-of-core table, or nil for a
// resident table.
func (t *Table) Pool() *blockstore.Pool { return t.pool }

// Store returns the block store of an out-of-core table, or nil.
func (t *Table) Store() *blockstore.Store { return t.store }

// SetLabel names the backing store in block errors and fault stats
// (typically the registered table name). No-op for resident tables.
func (t *Table) SetLabel(l string) {
	if t.store != nil {
		t.store.SetLabel(l)
	}
}

// Close releases the block store of an out-of-core table, and with it
// the table's cached frames and quarantine entries in the buffer pool.
// The caller must ensure no pinned frames of this table remain.
// Resident tables have nothing to close.
func (t *Table) Close() error {
	if t.store == nil {
		return nil
	}
	err := t.store.Close()
	t.store = nil
	return err
}

// FloatBlocks is the block-granular access seam of one float column:
// Pin returns the values of a block (locally indexed 0..BlockRows-1)
// regardless of backing — a subslice for resident tables, a pinned
// pool frame for out-of-core tables. Pin/Unpin on a warm pool do not
// allocate, preserving the executor's allocation-free steady state.
type FloatBlocks struct {
	resident  []float64
	store     *blockstore.Store
	pool      *blockstore.Pool
	ci        int
	blockSize int
	rows      int
}

// FloatBlocks returns the block accessor for a float column.
func (t *Table) FloatBlocks(name string) (FloatBlocks, error) {
	c, ok := t.floats[name]
	if !ok {
		return FloatBlocks{}, fmt.Errorf("table: no float column %q", name)
	}
	fb := FloatBlocks{
		resident:  c.Values,
		blockSize: t.layout.BlockSize,
		rows:      t.rows,
	}
	if t.store != nil {
		fb.store = t.store
		fb.pool = t.pool
		fb.ci = t.schema.Lookup(name)
	}
	return fb, nil
}

// Pin returns block b's values, locally indexed. The returned frame is
// nil for resident tables and must otherwise be passed to Unpin when
// the caller is done with the slice.
func (fb *FloatBlocks) Pin(b int) ([]float64, *blockstore.Frame, error) {
	if fb.resident != nil {
		start := b * fb.blockSize
		end := min(start+fb.blockSize, fb.rows)
		return fb.resident[start:end], nil, nil
	}
	f, err := fb.pool.PinFloat(fb.store, fb.ci, b)
	if err != nil {
		return nil, nil, err
	}
	return f.Floats(), f, nil
}

// Unpin releases a frame returned by Pin (no-op for resident blocks).
func (fb *FloatBlocks) Unpin(f *blockstore.Frame) {
	if f != nil {
		fb.pool.Unpin(f)
	}
}

// Resident returns the full column slice when the backing is resident,
// or nil for out-of-core columns.
func (fb *FloatBlocks) Resident() []float64 { return fb.resident }

// CatBlocks is the categorical counterpart of FloatBlocks.
type CatBlocks struct {
	resident  []uint32
	store     *blockstore.Store
	pool      *blockstore.Pool
	ci        int
	blockSize int
	rows      int
}

// CatBlocks returns the block accessor for a categorical column.
func (t *Table) CatBlocks(name string) (CatBlocks, error) {
	c, ok := t.cats[name]
	if !ok {
		return CatBlocks{}, fmt.Errorf("table: no categorical column %q", name)
	}
	cb := CatBlocks{
		resident:  c.Codes,
		blockSize: t.layout.BlockSize,
		rows:      t.rows,
	}
	if t.store != nil {
		cb.store = t.store
		cb.pool = t.pool
		cb.ci = t.schema.Lookup(name)
	}
	return cb, nil
}

// Pin returns block b's codes, locally indexed; see FloatBlocks.Pin.
func (cb *CatBlocks) Pin(b int) ([]uint32, *blockstore.Frame, error) {
	if cb.resident != nil {
		start := b * cb.blockSize
		end := min(start+cb.blockSize, cb.rows)
		return cb.resident[start:end], nil, nil
	}
	f, err := cb.pool.PinCat(cb.store, cb.ci, b)
	if err != nil {
		return nil, nil, err
	}
	return f.Codes(), f, nil
}

// Unpin releases a frame returned by Pin (no-op for resident blocks).
func (cb *CatBlocks) Unpin(f *blockstore.Frame) {
	if f != nil {
		cb.pool.Unpin(f)
	}
}

// Resident returns the full code slice when the backing is resident.
func (cb *CatBlocks) Resident() []uint32 { return cb.resident }
