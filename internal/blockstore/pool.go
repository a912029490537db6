package blockstore

import (
	"errors"
	"sync"
	"time"
)

// Pool is a shared buffer pool of decoded column blocks: queries pin
// the blocks they are scanning, and an LRU keeps recently used blocks
// decoded under a byte budget. One pool is typically shared by every
// out-of-core table of a process, so the budget bounds total decoded
// block memory.
//
// Frames sit in a dense per-(store, column) table indexed by block, so
// a warm pin is a last-store pointer compare plus a slice index. A
// demand miss reads an extent — the block and up to extentBlocks-1
// following blocks of its column, stopping at the first that is
// resident, loading, quarantined or not file-contiguous — in one
// physical read. Every segment of it passes the fault hook, the v4
// CRC32C and the decode before its frame is installed; the read-ahead
// frames enter the LRU unpinned.
//
// Concurrency: one mutex guards the frame tables, the LRU and the
// counters. Reads and decodes happen outside the lock with the
// extent's frames in a loading state; concurrent pinners of any of
// them wait on a condition variable, so an extent is read once no
// matter how many queries want it. Evicted frames keep their decoded
// buffers on a freelist and reads go through pool-owned buffers, so a
// warmed-up pool pins, reads and evicts without allocating.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond

	budget int64
	used   int64

	// tables holds each store's frame table; last is the most recently
	// pinned store's, which spares the warm path the map lookup.
	tables map[*Store]*frameTable
	last   *frameTable

	// lruHead is the most recently used unpinned frame; lruTail the
	// eviction candidate.
	lruHead, lruTail *Frame

	freeFloat []*Frame
	freeCat   []*Frame
	// bufs are the idle read buffers: a loader borrows one for its read
	// and decode, so they grow only to the widest extent.
	bufs [][]byte

	hits, misses, evictions, prefetched int64
	bytesRead                           int64

	ioErrors, checksumFailures int64
	retries                    int64

	// quarantine holds blocks whose loads failed permanently (retries
	// exhausted, or deterministic corruption): later pins fail fast with
	// the recorded error instead of re-reading a known-bad segment.
	// Quarantined blocks are never in a frame table, so the check rides
	// the miss path — the warm pin path is untouched.
	quarantine map[frameKey]*BlockError

	retry RetryPolicy
}

// extentBlocks is the most blocks one demand miss reads: the demand
// block and up to extentBlocks-1 following blocks of its column.
const extentBlocks = 16

type frameKey struct {
	store *Store
	col   int32
	block int32
}

// frameTable is one store's frames: cols[ci][b] is column ci's block b,
// nil when not cached. A column's slice is sized from the store's
// directory on the column's first pin.
type frameTable struct {
	store *Store
	cols  [][]*Frame
}

// Frame is one pinned decoded block. Callers read Floats or Codes
// (whichever matches the column kind) and must Unpin when done with
// the block; the slices are invalid after the unpin.
type Frame struct {
	tab        *frameTable
	col, block int32
	isFloat    bool
	pins       int
	loading    bool

	floats []float64
	codes  []uint32
	bytes  int64 // budget charge

	prev, next *Frame
	inLRU      bool
}

// Floats returns the decoded float values of the pinned block.
func (f *Frame) Floats() []float64 { return f.floats }

// Codes returns the decoded dictionary codes of the pinned block.
func (f *Frame) Codes() []uint32 { return f.codes }

// DefaultPoolBytes is the pool budget used when none is configured:
// 64 MiB of decoded blocks.
const DefaultPoolBytes = 64 << 20

// RetryPolicy governs how the pool handles a failed block load.
// Transient failures (ErrIO, ErrChecksum — a torn read may verify clean
// on the next attempt) are retried with capped exponential backoff;
// ErrDecode is deterministic and never retried. When attempts are
// exhausted the block is quarantined.
type RetryPolicy struct {
	// MaxAttempts is the total number of read attempts per load (≥ 1).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay.
	BaseDelay, MaxDelay time.Duration
	// Sleep is the clock seam: tests inject a recorder, production uses
	// time.Sleep (the default when nil).
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is the policy installed by NewPool: three attempts
// with 1ms → 2ms backoff, 50ms cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

// delay returns the backoff before retry attempt n (the n'th retry,
// 1-based).
func (rp RetryPolicy) delay(n int) time.Duration {
	d := rp.BaseDelay
	for i := 1; i < n; i++ {
		d *= 2
		if d >= rp.MaxDelay {
			return rp.MaxDelay
		}
	}
	if d > rp.MaxDelay {
		d = rp.MaxDelay
	}
	return d
}

// NewPool returns a pool with the given decoded-byte budget
// (DefaultPoolBytes if budget ≤ 0). The budget is a target, not a hard
// cap: pinned and loading frames are never evicted, so a working set
// larger than the budget temporarily exceeds it.
func NewPool(budget int64) *Pool {
	if budget <= 0 {
		budget = DefaultPoolBytes
	}
	p := &Pool{
		budget:     budget,
		tables:     map[*Store]*frameTable{},
		quarantine: map[frameKey]*BlockError{},
		retry:      DefaultRetryPolicy(),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// SetRetryPolicy replaces the pool's retry policy (MaxAttempts is
// clamped to ≥ 1). Safe to call concurrently with pins; in-flight loads
// keep the policy they started with.
func (p *Pool) SetRetryPolicy(rp RetryPolicy) {
	if rp.MaxAttempts < 1 {
		rp.MaxAttempts = 1
	}
	p.mu.Lock()
	p.retry = rp
	p.mu.Unlock()
}

// ClearQuarantine drops every quarantine entry for store s (all stores
// if s is nil), so later pins attempt fresh reads — for operators after
// replacing a damaged file, and for tests.
func (p *Pool) ClearQuarantine(s *Store) (removed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.quarantine {
		if s == nil || k.store == s {
			delete(p.quarantine, k)
			removed++
		}
	}
	return removed
}

// Close is a no-op kept for callers that release pools explicitly: the
// pool owns no goroutine or file, its frames are freed with it, and a
// table's frames leave it when the table closes.
func (p *Pool) Close() {}

// drop releases store s's unpinned frames, its frame table and its
// quarantine entries; Store.Close calls it for every pool that paged
// the store, so a closed table stops holding budget.
func (p *Pool) drop(s *Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if tab := p.tables[s]; tab != nil {
		for _, col := range tab.cols {
			for _, f := range col {
				if f != nil && f.inLRU {
					p.release(f)
				}
			}
		}
		delete(p.tables, s)
		if p.last == tab {
			p.last = nil
		}
	}
	for k := range p.quarantine {
		if k.store == s {
			delete(p.quarantine, k)
		}
	}
}

// Stats is a snapshot of the pool counters.
type Stats struct {
	// BudgetBytes and UsedBytes are the configured target and the
	// decoded bytes currently cached (pinned + LRU).
	BudgetBytes int64
	UsedBytes   int64
	// Hits counts Pin calls served from cache — including blocks an
	// earlier extent read ahead; Misses counts demand loads (one extent
	// read each); Evictions counts frames dropped under budget
	// pressure; Prefetched counts segments read ahead by extent reads.
	// Misses + Prefetched is the number of segments physically read.
	Hits, Misses, Evictions, Prefetched int64
	// BytesRead is the compressed segment bytes physically read.
	BytesRead int64
	// IOErrors and ChecksumFailures count failed load attempts by kind
	// (decode failures count as checksum failures: both are integrity
	// losses); Retries counts backoff retries issued; QuarantinedBlocks
	// counts blocks currently quarantined after permanent failure.
	IOErrors, ChecksumFailures int64
	Retries                    int64
	QuarantinedBlocks          int64
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		BudgetBytes:       p.budget,
		UsedBytes:         p.used,
		Hits:              p.hits,
		Misses:            p.misses,
		Evictions:         p.evictions,
		Prefetched:        p.prefetched,
		BytesRead:         p.bytesRead,
		IOErrors:          p.ioErrors,
		ChecksumFailures:  p.checksumFailures,
		Retries:           p.retries,
		QuarantinedBlocks: int64(len(p.quarantine)),
	}
}

// PinFloat pins block b of float column ci, loading and decoding it if
// absent. The frame stays resident until the matching Unpin.
func (p *Pool) PinFloat(s *Store, ci, b int) (*Frame, error) {
	return p.pin(s, ci, b, true)
}

// PinCat pins block b of categorical column ci.
func (p *Pool) PinCat(s *Store, ci, b int) (*Frame, error) {
	return p.pin(s, ci, b, false)
}

func (p *Pool) pin(s *Store, ci, b int, isFloat bool) (*Frame, error) {
	p.mu.Lock()
	tab := p.last
	if tab == nil || tab.store != s {
		tab = p.table(s)
	}
	col := tab.cols[ci]
	if col == nil {
		col = make([]*Frame, len(s.dir[ci].offs))
		tab.cols[ci] = col
	}
	for {
		f := col[b]
		if f == nil {
			break
		}
		if f.loading {
			// Another goroutine's extent read covers this block: wait
			// for it rather than issuing a duplicate read, then re-check
			// (the load may have failed and removed the frame).
			p.cond.Wait()
			continue
		}
		f.pins++
		if f.inLRU {
			p.lruRemove(f)
		}
		p.hits++
		p.mu.Unlock()
		return f, nil
	}

	// Miss: a quarantined block fails fast with its recorded error —
	// no further physical reads of a known-bad segment.
	if qerr := p.quarantined(s, ci, b); qerr != nil {
		p.mu.Unlock()
		return nil, qerr
	}

	// Claim the extent with loading frames, then read outside the lock.
	var ext [extentBlocks]*Frame
	n := 0
	for n < extentBlocks {
		j := b + n
		if n > 0 && (j == len(col) || col[j] != nil || !s.contiguous(ci, j) || p.quarantined(s, ci, j) != nil) {
			break
		}
		ext[n] = p.claim(tab, ci, j, isFloat)
		p.bytesRead += int64(s.dir[ci].lens[j])
		n++
	}
	f := ext[0]
	f.pins = 1
	p.misses++
	p.prefetched += int64(n - 1)
	var buf []byte
	if k := len(p.bufs); k > 0 {
		buf = p.bufs[k-1]
		p.bufs = p.bufs[:k-1]
	}
	rp := p.retry
	p.evictLocked()
	p.mu.Unlock()

	// One read for the whole extent, then the per-segment gate (fault
	// hook, CRC32C) and decode. A failed read-ahead segment is dropped,
	// never quarantined: a later pin loads it as its own demand block,
	// through the full retry path.
	var errs [extentBlocks]error
	raw, buf, spanErr := s.span(ci, b, n, buf)
	for i, g := range ext[:n] {
		if errs[i] = spanErr; spanErr == nil {
			j := b + i
			var seg []byte
			if seg, errs[i] = s.check(ci, j, 0, raw[s.dir[ci].offs[j]-s.dir[ci].offs[b]:]); errs[i] == nil {
				errs[i] = g.decode(s, seg)
			}
		}
	}

	p.mu.Lock()
	for i, g := range ext[1:n] {
		if errs[i+1] == nil {
			g.loading = false
			p.lruPush(g)
			continue
		}
		if spanErr == nil { // a failed span read counts once, on the demand block
			p.noteFailure(s, errs[i+1])
		}
		p.release(g)
	}
	p.cond.Broadcast()

	// Retry the demand block alone: transient failures (I/O, checksum —
	// a torn read may verify clean next time) back off and re-read while
	// the frame stays loading, so its concurrent pinners keep waiting on
	// the one load. Deterministic decode corruption is never retried. A
	// load that succeeds after retries is indistinguishable from a clean
	// one — same decoded bytes, so query results are byte-identical.
	err := errs[0]
	for attempt := 0; err != nil; {
		p.noteFailure(s, err)
		if errKind(err) == ErrDecode || attempt+1 >= rp.MaxAttempts {
			break
		}
		attempt++
		p.retries++
		s.noteRetry()
		p.mu.Unlock()
		sleep := rp.Sleep
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(rp.delay(attempt))
		var seg []byte
		if seg, buf, err = s.segment(ci, b, buf, attempt); err == nil {
			err = f.decode(s, seg)
		}
		p.mu.Lock()
	}
	p.bufs = append(p.bufs, buf)
	if err != nil {
		// Permanent failure: quarantine the block so later pins fail
		// fast, and recycle the frame.
		var be *BlockError
		if errors.As(err, &be) {
			key := frameKey{store: s, col: int32(ci), block: int32(b)}
			if _, dup := p.quarantine[key]; !dup {
				p.quarantine[key] = be
				s.noteQuarantine()
			}
		}
		p.release(f)
		p.cond.Broadcast()
		p.mu.Unlock()
		return nil, err
	}
	f.loading = false
	p.cond.Broadcast()
	p.mu.Unlock()
	return f, nil
}

// table returns store s's frame table, creating it on the store's first
// pin, and makes it the last-store cache. Caller holds p.mu.
func (p *Pool) table(s *Store) *frameTable {
	tab := p.tables[s]
	if tab == nil {
		tab = &frameTable{store: s, cols: make([][]*Frame, len(s.dir))}
		p.tables[s] = tab
		s.pools.Store(p, nil)
	}
	p.last = tab
	return tab
}

// quarantined returns the recorded error of a quarantined block, nil
// for a healthy one. Caller holds p.mu.
func (p *Pool) quarantined(s *Store, ci, b int) *BlockError {
	if len(p.quarantine) == 0 {
		return nil
	}
	return p.quarantine[frameKey{store: s, col: int32(ci), block: int32(b)}]
}

// claim installs an unpinned loading frame for block b of column ci and
// charges it to the budget. Caller holds p.mu.
func (p *Pool) claim(tab *frameTable, ci, b int, isFloat bool) *Frame {
	f := p.allocFrame(isFloat)
	f.tab, f.col, f.block = tab, int32(ci), int32(b)
	f.isFloat = isFloat
	f.pins = 0
	f.loading = true
	f.bytes = int64(tab.store.meta.BlockRows(b)) * 4
	if isFloat {
		f.bytes *= 2
	}
	tab.cols[ci][b] = f
	p.used += f.bytes
	return f
}

// noteFailure counts one failed load attempt against the pool and the
// store. Caller holds p.mu.
func (p *Pool) noteFailure(s *Store, err error) {
	if errKind(err) == ErrIO {
		p.ioErrors++
	} else {
		p.checksumFailures++
	}
	s.noteFault(time.Now().UnixNano())
}

// errKind classifies a load error; unclassified errors count as I/O.
func errKind(err error) ErrKind {
	var be *BlockError
	if errors.As(err, &be) {
		return be.Kind
	}
	return ErrIO
}

// decode decodes a verified segment into the frame's buffers.
func (f *Frame) decode(s *Store, seg []byte) (err error) {
	rows := s.meta.BlockRows(int(f.block))
	if f.isFloat {
		f.floats, err = DecodeFloatBlock(seg, f.floats, rows)
	} else {
		f.codes, err = DecodeCatBlock(seg, f.codes, rows)
	}
	return s.decodeErr(int(f.col), int(f.block), err)
}

// Unpin releases a pinned frame. The frame's slices must not be used
// afterwards.
func (p *Pool) Unpin(f *Frame) {
	if f == nil {
		return
	}
	p.mu.Lock()
	f.pins--
	if f.pins == 0 {
		p.lruPush(f)
		if p.used > p.budget {
			p.evictLocked()
		}
	}
	p.mu.Unlock()
}

// evictLocked drops LRU frames until the budget holds or only pinned
// and loading frames remain. Caller holds p.mu.
func (p *Pool) evictLocked() {
	for p.used > p.budget && p.lruTail != nil {
		p.release(p.lruTail)
		p.evictions++
	}
}

// allocFrame takes a frame off the matching freelist or allocates one.
// Caller holds p.mu.
func (p *Pool) allocFrame(isFloat bool) *Frame {
	var list *[]*Frame
	if isFloat {
		list = &p.freeFloat
	} else {
		list = &p.freeCat
	}
	if n := len(*list); n > 0 {
		f := (*list)[n-1]
		*list = (*list)[:n-1]
		return f
	}
	return &Frame{}
}

// release removes an unpinned (or failed loading) frame from its table
// and the budget, and parks its buffers for reuse. Caller holds p.mu.
func (p *Pool) release(f *Frame) {
	if f.inLRU {
		p.lruRemove(f)
	}
	f.tab.cols[f.col][f.block] = nil
	f.tab = nil
	p.used -= f.bytes
	if f.isFloat {
		p.freeFloat = append(p.freeFloat, f)
	} else {
		p.freeCat = append(p.freeCat, f)
	}
}

// lruPush inserts f at the head (most recently used). Caller holds
// p.mu.
func (p *Pool) lruPush(f *Frame) {
	f.inLRU = true
	f.prev = nil
	f.next = p.lruHead
	if p.lruHead != nil {
		p.lruHead.prev = f
	}
	p.lruHead = f
	if p.lruTail == nil {
		p.lruTail = f
	}
}

// lruRemove unlinks f. Caller holds p.mu.
func (p *Pool) lruRemove(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		p.lruHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		p.lruTail = f.prev
	}
	f.prev, f.next = nil, nil
	f.inLRU = false
}
