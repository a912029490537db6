package blockstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Store is an open v3/v4 file ready for random block access: header and
// segment directory resident, data segments read on demand (pread by
// default, or zero-copy out of an mmap'd region). v4 segments are
// CRC32C-verified on every physical read, before decode; v3 files open
// and read unverified. A Store is safe for concurrent readers and is
// normally accessed through a Pool, which adds caching, pinning,
// eviction, and retry/quarantine of failing blocks.
type Store struct {
	f       *os.File
	mm      []byte // non-nil when the file is memory-mapped
	meta    *Meta
	version uint32
	label   string

	// dir is the segment directory: dir[ci].offs[b] / lens[b] locate
	// column ci's block b in the file. pad is the checksum width after
	// each payload (4 on v4, 0 on v3).
	dir []colDir
	pad int64

	// bytesRead and blocksRead count physical segment reads (both pread
	// and mmap paths), for the pool counters.
	bytesRead  atomic.Int64
	blocksRead atomic.Int64

	// Fault counters, reported per table via FaultStats. ioErrors and
	// checksumFailures are incremented here on every failed physical
	// read; retries and quarantined are incremented by the pool, which
	// owns that policy, so one snapshot carries the whole story.
	ioErrors         atomic.Int64
	checksumFailures atomic.Int64
	retries          atomic.Int64
	quarantined      atomic.Int64
	lastFaultNano    atomic.Int64

	// fault holds the injected FaultFunc (test seam); see SetFault.
	fault atomic.Value

	// pools holds (as keys) the pools that paged this store, for Close.
	pools sync.Map
}

type colDir struct {
	offs []int64
	lens []int32
}

// OpenOptions configures Open.
type OpenOptions struct {
	// Mmap maps the file read-only and decodes segments straight out of
	// the mapping instead of issuing preads. Page residency is then
	// managed by the OS in addition to the pool's decoded-block budget.
	Mmap bool
}

// Open opens a v3/v4 file for random block access. Files in older
// formats (v1/v2) have no segment directory and return an error —
// load those resident via the table reader.
func Open(path string, opts OpenOptions) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := newStore(f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.label = path
	return s, nil
}

func newStore(f *os.File, opts OpenOptions) (*Store, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()

	// Header: magic, version, then the shared meta parser (which on v4
	// verifies the header checksum).
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("blockstore: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("blockstore: bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != Version && version != VersionV3 {
		return nil, fmt.Errorf("blockstore: format v%d has no segment directory (out-of-core needs v%d or v%d; load resident instead)", version, VersionV3, Version)
	}
	meta, err := ReadMeta(br, version)
	if err != nil {
		return nil, err
	}

	// Footer: the trailing 12 bytes locate the directory. Everything the
	// directory declares — its own extent, then every segment's offset
	// and length — is validated against the file size before any
	// allocation or slice is derived from it, so a truncated or
	// bit-flipped footer yields a clean error rather than a huge make()
	// or an out-of-range panic.
	var tail [12]byte
	if size < int64(len(tail)) {
		return nil, fmt.Errorf("blockstore: file too small (%d bytes)", size)
	}
	if _, err := f.ReadAt(tail[:], size-12); err != nil {
		return nil, err
	}
	if string(tail[8:]) != footerMagicFor(version) {
		return nil, fmt.Errorf("blockstore: bad footer magic %q", tail[8:])
	}
	footerOff := int64(binary.LittleEndian.Uint64(tail[:8]))
	nb := meta.NumBlocks()
	dirLen := int64(len(meta.Cols)) * int64(nb) * 12
	footerLen := dirLen
	if version >= Version {
		footerLen += 4 // trailing directory CRC
	}
	if footerOff < 0 || footerOff+footerLen != size-12 {
		return nil, fmt.Errorf("blockstore: corrupt footer offset %d", footerOff)
	}
	if version >= Version {
		var crcBuf [4]byte
		if _, err := f.ReadAt(crcBuf[:], footerOff+dirLen); err != nil {
			return nil, err
		}
		stored := binary.LittleEndian.Uint32(crcBuf[:])
		got, err := crcOfRange(f, footerOff, dirLen)
		if err != nil {
			return nil, err
		}
		if got != stored {
			return nil, fmt.Errorf("blockstore: footer checksum mismatch (stored %08x, computed %08x)", stored, got)
		}
	}
	// v4 segments carry a 4-byte trailing CRC not counted in the
	// directory length; segment bounds must account for it.
	segPad := int64(0)
	if version >= Version {
		segPad = 4
	}
	fr := bufio.NewReaderSize(io.NewSectionReader(f, footerOff, dirLen), 1<<16)
	dir := make([]colDir, len(meta.Cols))
	for ci := range dir {
		offs := make([]int64, nb)
		lens := make([]int32, nb)
		buf := make([]byte, 8*nb)
		if _, err := io.ReadFull(fr, buf); err != nil {
			return nil, err
		}
		for b := range offs {
			offs[b] = int64(binary.LittleEndian.Uint64(buf[8*b:]))
		}
		if _, err := io.ReadFull(fr, buf[:4*nb]); err != nil {
			return nil, err
		}
		for b := range lens {
			lens[b] = int32(binary.LittleEndian.Uint32(buf[4*b:]))
		}
		for b := range offs {
			if lens[b] < 0 || int(lens[b]) > maxSegLen(meta.BlockRows(b)) {
				return nil, fmt.Errorf("blockstore: segment (%d,%d) has implausible length %d", ci, b, lens[b])
			}
			if offs[b] < 0 || offs[b]+int64(lens[b])+segPad > footerOff {
				return nil, fmt.Errorf("blockstore: segment (%d,%d) out of bounds", ci, b)
			}
		}
		dir[ci] = colDir{offs: offs, lens: lens}
	}

	s := &Store{f: f, meta: meta, version: version, dir: dir, pad: segPad}
	if opts.Mmap {
		mm, err := mmapFile(f, size)
		if err != nil {
			return nil, fmt.Errorf("blockstore: mmap: %w", err)
		}
		s.mm = mm
	}
	return s, nil
}

// crcOfRange computes CRC32C over n bytes of f starting at off.
func crcOfRange(f *os.File, off, n int64) (uint32, error) {
	var crc uint32
	buf := make([]byte, 1<<16)
	for n > 0 {
		chunk := int64(len(buf))
		if chunk > n {
			chunk = n
		}
		if _, err := f.ReadAt(buf[:chunk], off); err != nil {
			return 0, err
		}
		crc = crc32.Update(crc, castagnoli, buf[:chunk])
		off += chunk
		n -= chunk
	}
	return crc, nil
}

// Meta returns the file header.
func (s *Store) Meta() *Meta { return s.meta }

// Version returns the on-disk format version (VersionV3 or Version).
func (s *Store) Version() uint32 { return s.version }

// Label returns the store's human-readable identity, used in
// BlockError.Table. It defaults to the file path; Register overrides it
// with the registered table name via SetLabel.
func (s *Store) Label() string { return s.label }

// SetLabel sets the label reported in block errors and fault stats.
func (s *Store) SetLabel(l string) { s.label = l }

// SetFault installs (or, with nil, clears) a fault-injection hook
// consulted before every physical segment read. Test seam: production
// code never calls this. Safe to call concurrently with reads.
func (s *Store) SetFault(fn FaultFunc) { s.fault.Store(fn) }

// FaultStats is a snapshot of a store's fault counters.
type FaultStats struct {
	IOErrors          int64
	ChecksumFailures  int64
	Retries           int64
	QuarantinedBlocks int64
	// LastFaultUnixNano is the wall-clock time of the most recent fault,
	// 0 if none; the serving layer's circuit breaker ages on it.
	LastFaultUnixNano int64
}

// FaultStats returns a snapshot of the store's fault counters.
func (s *Store) FaultStats() FaultStats {
	return FaultStats{
		IOErrors:          s.ioErrors.Load(),
		ChecksumFailures:  s.checksumFailures.Load(),
		Retries:           s.retries.Load(),
		QuarantinedBlocks: s.quarantined.Load(),
		LastFaultUnixNano: s.lastFaultNano.Load(),
	}
}

// noteRetry and noteQuarantine record pool retry/quarantine decisions
// against the store they concern, so per-table stats are complete.
func (s *Store) noteRetry()      { s.retries.Add(1) }
func (s *Store) noteQuarantine() { s.quarantined.Add(1) }

func (s *Store) noteFault(now int64) { s.lastFaultNano.Store(now) }

// blockErr wraps err as a classified BlockError and bumps the matching
// counter.
func (s *Store) blockErr(ci, b int, kind ErrKind, err error) *BlockError {
	switch kind {
	case ErrChecksum, ErrDecode:
		s.checksumFailures.Add(1)
	default:
		s.ioErrors.Add(1)
	}
	return &BlockError{Table: s.label, Col: ci, Block: b, Kind: kind, Err: err}
}

// Close releases the store's frames, frame tables and quarantine
// entries in every pool that paged it, then unmaps and closes the
// underlying file. The caller must ensure no pinned frames of this
// store remain in any pool.
func (s *Store) Close() error {
	s.pools.Range(func(p, _ any) bool {
		p.(*Pool).drop(s)
		return true
	})
	if s.mm != nil {
		if err := munmap(s.mm); err != nil {
			return err
		}
		s.mm = nil
	}
	return s.f.Close()
}

// BytesRead and BlocksRead report cumulative physical segment reads.
func (s *Store) BytesRead() int64  { return s.bytesRead.Load() }
func (s *Store) BlocksRead() int64 { return s.blocksRead.Load() }

// contiguous reports whether block b of column ci starts right after
// block b-1 in the file, so that one read can cover both.
func (s *Store) contiguous(ci, b int) bool {
	d := s.dir[ci]
	return d.offs[b] == d.offs[b-1]+int64(d.lens[b-1])+s.pad+4
}

// span returns the raw bytes of the n file-contiguous segments of
// column ci from block b0 on: one pread into scratch (regrown if too
// small), or a slice of the mapping. The read counters are bumped once
// for the whole span.
func (s *Store) span(ci, b0, n int, scratch []byte) (raw, newScratch []byte, err error) {
	d := s.dir[ci]
	last := b0 + n - 1
	off := d.offs[b0]
	end := d.offs[last] + int64(d.lens[last]) + s.pad
	var payload int64
	for _, ln := range d.lens[b0 : last+1] {
		payload += int64(ln)
	}
	s.bytesRead.Add(payload)
	s.blocksRead.Add(int64(n))
	if s.mm != nil {
		return s.mm[off:end], scratch, nil
	}
	want := int(end - off)
	if cap(scratch) < want {
		scratch = make([]byte, want)
	}
	scratch = scratch[:want]
	if _, err := s.f.ReadAt(scratch, off); err != nil {
		return nil, scratch, s.blockErr(ci, b0, ErrIO, err)
	}
	return scratch, scratch, nil
}

// check gates the bytes of segment (ci, b), raw starting at its
// payload: the fault hook (attempt numbers the pool's retries of one
// logical load, 0 for first try), then on v4 the CRC32C. It returns
// the payload.
func (s *Store) check(ci, b, attempt int, raw []byte) ([]byte, error) {
	if v := s.fault.Load(); v != nil {
		if fn, _ := v.(FaultFunc); fn != nil {
			if ferr := fn(ci, b, attempt); ferr != nil {
				return nil, s.blockErr(ci, b, ErrIO, ferr)
			}
		}
	}
	ln := int(s.dir[ci].lens[b])
	seg := raw[:ln]
	if s.version >= Version {
		stored := binary.LittleEndian.Uint32(raw[ln:])
		if got := crc32.Checksum(seg, castagnoli); got != stored {
			return nil, s.blockErr(ci, b, ErrChecksum,
				fmt.Errorf("stored %08x, computed %08x", stored, got))
		}
	}
	return seg, nil
}

// segment returns the verified payload of segment (ci, b), reading it
// alone into scratch on the pread path. The returned scratch slice must
// be passed back on the next call to reuse its backing array.
func (s *Store) segment(ci, b int, scratch []byte, attempt int) (seg, newScratch []byte, err error) {
	raw, scratch, err := s.span(ci, b, 1, scratch)
	if err != nil {
		return nil, scratch, err
	}
	seg, err = s.check(ci, b, attempt, raw)
	return seg, scratch, err
}

// ReadFloatBlock decodes block b of float column ci into dst (reusing
// its backing array), verifying the segment checksum on v4 stores.
// scratch is the caller's read buffer, returned possibly regrown.
func (s *Store) ReadFloatBlock(ci, b int, dst []float64, scratch []byte) ([]float64, []byte, error) {
	seg, scratch, err := s.segment(ci, b, scratch, 0)
	if err != nil {
		return dst[:0], scratch, err
	}
	dst, err = DecodeFloatBlock(seg, dst, s.meta.BlockRows(b))
	return dst, scratch, s.decodeErr(ci, b, err)
}

// ReadCatBlock decodes block b of categorical column ci into dst.
func (s *Store) ReadCatBlock(ci, b int, dst []uint32, scratch []byte) ([]uint32, []byte, error) {
	seg, scratch, err := s.segment(ci, b, scratch, 0)
	if err != nil {
		return dst[:0], scratch, err
	}
	dst, err = DecodeCatBlock(seg, dst, s.meta.BlockRows(b))
	return dst, scratch, s.decodeErr(ci, b, err)
}

// decodeErr classifies a decode failure of (ci, b) as ErrDecode
// (deterministic, never retried); nil stays nil.
func (s *Store) decodeErr(ci, b int, err error) error {
	if err == nil {
		return nil
	}
	return s.blockErr(ci, b, ErrDecode, err)
}
