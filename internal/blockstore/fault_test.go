package blockstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// flipByte flips one byte of the file at off and returns a restore
// function.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptTruncatedOpen is the hardening regression: files truncated
// at every prefix length and files with damaged footers must fail Open
// with an error — never panic, never allocate absurdly — because the
// on-disk lengths and offsets are validated against the file size
// before any slicing.
func TestCorruptTruncatedOpen(t *testing.T) {
	path, _, _, _ := writeFixtureFile(t, 500, 25, 6, 77)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Truncations: a sweep of prefix lengths (dense near the ends,
	// strided through the middle).
	var cuts []int
	for n := 0; n < len(data) && n < 64; n++ {
		cuts = append(cuts, n)
	}
	for n := 64; n < len(data); n += 997 {
		cuts = append(cuts, n)
	}
	for n := len(data) - 32; n < len(data); n++ {
		if n > 0 {
			cuts = append(cuts, n)
		}
	}
	for _, n := range cuts {
		p := filepath.Join(dir, "trunc.ffs")
		if err := os.WriteFile(p, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(p, OpenOptions{}); err == nil {
			s.Close()
			t.Fatalf("Open accepted a file truncated to %d of %d bytes", n, len(data))
		}
	}

	// Bit flips across the whole file: Open either rejects the file
	// (header/footer damage) or opens it and every block read either
	// fails with a classified *BlockError or succeeds — no panics, no
	// unclassified errors.
	for off := int64(0); off < int64(len(data)); off += 211 {
		p := filepath.Join(dir, "flip.ffs")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		flipByte(t, p, off)
		s, err := Open(p, OpenOptions{})
		if err != nil {
			continue
		}
		var fdst []float64
		var cdst []uint32
		var scratch []byte
		for ci, c := range s.Meta().Cols {
			for b := 0; b < s.Meta().NumBlocks(); b++ {
				if c.Kind == KindFloat {
					fdst, scratch, err = s.ReadFloatBlock(ci, b, fdst, scratch)
				} else {
					cdst, scratch, err = s.ReadCatBlock(ci, b, cdst, scratch)
				}
				if err != nil {
					var be *BlockError
					if !errors.As(err, &be) {
						t.Fatalf("flip@%d col %d block %d: unclassified error %v", off, ci, b, err)
					}
					if be.Col != ci || be.Block != b {
						t.Fatalf("flip@%d: error names col %d block %d, read was col %d block %d",
							off, be.Col, be.Block, ci, b)
					}
				}
			}
		}
		s.Close()
	}
}

// TestCorruptSegmentDetected flips a byte inside a known data segment
// of a v4 file and requires both backends to classify the read as a
// checksum BlockError naming the damaged block — corruption can't leak
// into decoded values.
func TestCorruptSegmentDetected(t *testing.T) {
	path, meta, floats, _ := writeFixtureFile(t, 500, 25, 6, 21)
	// Locate segment (col 0, block 3) via a throwaway store handle.
	probe, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	off := probe.dir[0].offs[3] + int64(probe.dir[0].lens[3])/2
	probe.Close()
	flipByte(t, path, off)

	for _, mmap := range []bool{false, true} {
		s, err := Open(path, OpenOptions{Mmap: mmap})
		if err != nil {
			t.Fatalf("mmap=%v: %v", mmap, err)
		}
		_, _, err = s.ReadFloatBlock(0, 3, nil, nil)
		var be *BlockError
		if !errors.As(err, &be) {
			t.Fatalf("mmap=%v: want *BlockError, got %v", mmap, err)
		}
		if be.Kind != ErrChecksum || be.Col != 0 || be.Block != 3 {
			t.Fatalf("mmap=%v: got %v, want checksum error at col 0 block 3", mmap, be)
		}
		// Undamaged blocks still decode bit-exactly.
		vals, _, err := s.ReadFloatBlock(0, 0, nil, nil)
		if err != nil {
			t.Fatalf("mmap=%v: clean block: %v", mmap, err)
		}
		st, en := 0, meta.BlockRows(0)
		for i := st; i < en; i++ {
			if math.Float64bits(vals[i]) != math.Float64bits(floats[0][i]) {
				t.Fatalf("mmap=%v: clean block row %d differs", mmap, i)
			}
		}
		if fs := s.FaultStats(); fs.ChecksumFailures == 0 {
			t.Errorf("mmap=%v: checksum failure not counted: %+v", mmap, fs)
		}
		s.Close()
	}
}

// TestRetryTransientHeals injects a fault on the first two attempts of
// one block's load: the pool must back off (recorded, not slept),
// retry, and return bytes identical to a clean read — a healed
// transient is invisible to the query.
func TestRetryTransientHeals(t *testing.T) {
	path, _, floats, _ := writeFixtureFile(t, 500, 25, 6, 5)
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := NewPool(1 << 20)
	defer p.Close()
	var slept []time.Duration
	p.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	s.SetFault(func(col, block, attempt int) error {
		if col == 0 && block == 2 && attempt < 2 {
			return fmt.Errorf("injected transient fault (attempt %d)", attempt)
		}
		return nil
	})

	f, err := p.PinFloat(s, 0, 2)
	if err != nil {
		t.Fatalf("pin after transient faults: %v", err)
	}
	rows := s.Meta().BlockRows(2)
	st := 2 * 25
	for i := 0; i < rows; i++ {
		if math.Float64bits(f.Floats()[i]) != math.Float64bits(floats[0][st+i]) {
			t.Fatalf("healed load row %d differs from clean data", i)
		}
	}
	p.Unpin(f)

	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Errorf("backoff = %v, want [1ms 2ms]", slept)
	}
	st2 := p.Stats()
	if st2.Retries != 2 || st2.IOErrors != 2 || st2.QuarantinedBlocks != 0 {
		t.Errorf("pool stats after heal: %+v", st2)
	}
	fs := s.FaultStats()
	if fs.Retries != 2 || fs.IOErrors != 2 || fs.QuarantinedBlocks != 0 || fs.LastFaultUnixNano == 0 {
		t.Errorf("store stats after heal: %+v", fs)
	}
}

// TestQuarantineAfterExhaustedRetries makes one block fail permanently:
// the load must stop after MaxAttempts physical reads, quarantine the
// block, fail later pins fast (zero further reads), keep extents from
// reading it ahead, and recover fully once the fault clears and the
// quarantine is lifted.
func TestQuarantineAfterExhaustedRetries(t *testing.T) {
	path, _, _, _ := writeFixtureFile(t, 500, 25, 6, 6)
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetLabel("fixture")

	p := NewPool(1 << 20)
	defer p.Close()
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
		Sleep: func(time.Duration) {}})
	var attempts atomic.Int64
	s.SetFault(func(col, block, attempt int) error {
		if col == 0 && block == 1 {
			attempts.Add(1)
			return errors.New("injected permanent fault")
		}
		return nil
	})

	_, err = p.PinFloat(s, 0, 1)
	var be *BlockError
	if !errors.As(err, &be) {
		t.Fatalf("want *BlockError, got %v", err)
	}
	if be.Table != "fixture" || be.Col != 0 || be.Block != 1 || be.Kind != ErrIO {
		t.Fatalf("error identity: %v", be)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("physical attempts = %d, want MaxAttempts = 3", n)
	}

	// Fail-fast: the quarantined block is not re-read.
	if _, err := p.PinFloat(s, 0, 1); !errors.As(err, &be) {
		t.Fatalf("second pin: want *BlockError, got %v", err)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("quarantined pin issued a physical read (attempts = %d)", n)
	}
	if st := p.Stats(); st.QuarantinedBlocks != 1 {
		t.Fatalf("QuarantinedBlocks = %d, want 1", st.QuarantinedBlocks)
	}
	if fs := s.FaultStats(); fs.QuarantinedBlocks != 1 {
		t.Fatalf("store QuarantinedBlocks = %d, want 1", fs.QuarantinedBlocks)
	}

	// An extent stops before a quarantined block: block 0 loads alone,
	// and block 1 is neither read nor hooked.
	st0, reads := p.Stats(), s.BlocksRead()
	f0, err := p.PinFloat(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f0)
	if st := p.Stats(); st.Misses != st0.Misses+1 || st.Prefetched != st0.Prefetched {
		t.Fatalf("block 0 read ahead past the quarantine: %+v", st)
	}
	if got := s.BlocksRead() - reads; got != 1 {
		t.Fatalf("block 0's extent read %d blocks, want 1", got)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("extent read of a quarantined block (attempts = %d)", n)
	}

	// Heal: clear the fault and the quarantine; the block loads clean.
	s.SetFault(nil)
	if removed := p.ClearQuarantine(s); removed != 1 {
		t.Fatalf("ClearQuarantine removed %d, want 1", removed)
	}
	f, err := p.PinFloat(s, 0, 1)
	if err != nil {
		t.Fatalf("pin after heal: %v", err)
	}
	p.Unpin(f)
	if st := p.Stats(); st.QuarantinedBlocks != 0 {
		t.Fatalf("QuarantinedBlocks after heal = %d, want 0", st.QuarantinedBlocks)
	}
}

// TestFaultExtentNeighbour makes a block inside another block's extent
// fail — by an injected I/O fault, or by a flipped byte that breaks its
// CRC32C. The demand pin must succeed without quarantining anything;
// the bad neighbour is dropped rather than installed, its extent-mates
// on both sides still land, and a later pin of the neighbour loads it
// as its own demand block through the full retry → quarantine path.
func TestFaultExtentNeighbour(t *testing.T) {
	for _, kind := range []ErrKind{ErrIO, ErrChecksum} {
		t.Run(kind.String(), func(t *testing.T) {
			path, meta, floats, _ := writeFixtureFile(t, 1000, 25, 6, 31) // 40 blocks
			const demand, bad = 3, 6
			if kind == ErrChecksum {
				probe, err := Open(path, OpenOptions{})
				if err != nil {
					t.Fatal(err)
				}
				off := probe.dir[0].offs[bad] + 1
				probe.Close()
				flipByte(t, path, off)
			}
			s, err := Open(path, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			p := NewPool(1 << 20)
			defer p.Close()
			p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}})
			var hooked []int // attempts at which the bad block was hooked
			s.SetFault(func(col, block, attempt int) error {
				if col != 0 || block != bad {
					return nil
				}
				hooked = append(hooked, attempt)
				if kind == ErrIO {
					return errors.New("injected permanent fault")
				}
				return nil
			})

			f, err := p.PinFloat(s, 0, demand)
			if err != nil {
				t.Fatalf("demand pin failed on a bad neighbour: %v", err)
			}
			p.Unpin(f)
			st := p.Stats()
			if st.QuarantinedBlocks != 0 || st.Retries != 0 {
				t.Fatalf("bad neighbour was retried or quarantined: %+v", st)
			}
			if st.Prefetched != extentBlocks-1 {
				t.Fatalf("Prefetched = %d, want %d (the bad segment was read once)", st.Prefetched, extentBlocks-1)
			}
			if len(hooked) != 1 || hooked[0] != 0 {
				t.Fatalf("bad neighbour hooked at attempts %v, want [0]", hooked)
			}
			reads := s.BlocksRead()
			for _, b := range []int{bad - 1, bad + 1, demand + extentBlocks - 1} {
				g, err := p.PinFloat(s, 0, b)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range g.Floats() {
					if math.Float64bits(v) != math.Float64bits(floats[0][b*meta.BlockSize+i]) {
						t.Fatalf("extent-mate %d row %d differs", b, i)
					}
				}
				p.Unpin(g)
			}
			if s.BlocksRead() != reads {
				t.Fatal("extent-mates of the bad neighbour were not installed")
			}

			// The neighbour alone: MaxAttempts reads of it, then
			// quarantine. Its extent stops at the resident block after it.
			_, err = p.PinFloat(s, 0, bad)
			var be *BlockError
			if !errors.As(err, &be) || be.Block != bad || be.Kind != kind {
				t.Fatalf("neighbour pin: want %s error at block %d, got %v", kind, bad, err)
			}
			if got := s.BlocksRead() - reads; got != 3 {
				t.Fatalf("neighbour load read %d segments, want 3 (one per attempt)", got)
			}
			if kind == ErrIO && (len(hooked) != 4 || hooked[1] != 0 || hooked[2] != 1 || hooked[3] != 2) {
				t.Fatalf("hook attempts %v, want [0 0 1 2]", hooked)
			}
			st = p.Stats()
			if st.QuarantinedBlocks != 1 || st.Retries != 2 {
				t.Fatalf("after neighbour load: %+v", st)
			}
			failures := st.IOErrors
			if kind == ErrChecksum {
				failures = st.ChecksumFailures
			}
			if failures != 4 {
				t.Fatalf("%s failures = %d, want 4 (one as neighbour, three as demand)", kind, failures)
			}
		})
	}
}

// TestFaultExtentDemandAttempts corrupts the demand block of an extent:
// the fault hook must see it at attempts 0..MaxAttempts-1 exactly once
// each, the block must then be quarantined, and its healthy read-ahead
// neighbours must still be installed.
func TestFaultExtentDemandAttempts(t *testing.T) {
	s, _, _, _ := openFixtureStore(t, 1000, 25, 6, 32)
	p := NewPool(1 << 20)
	defer p.Close()
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {}})
	var hooked []int
	s.SetFault(func(col, block, attempt int) error {
		if col == 2 && block == 10 {
			hooked = append(hooked, attempt)
			return errors.New("injected permanent fault")
		}
		return nil
	})
	if _, err := p.PinFloat(s, 2, 10); err == nil {
		t.Fatal("corrupt demand block pinned")
	}
	if len(hooked) != 4 || hooked[0] != 0 || hooked[1] != 1 || hooked[2] != 2 || hooked[3] != 3 {
		t.Fatalf("hook attempts %v, want [0 1 2 3]", hooked)
	}
	st := p.Stats()
	if st.QuarantinedBlocks != 1 || st.Retries != 3 || st.IOErrors != 4 {
		t.Fatalf("stats: %+v", st)
	}
	reads := s.BlocksRead()
	for b := 11; b < 10+extentBlocks; b++ {
		f, err := p.PinFloat(s, 2, b)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
	}
	if s.BlocksRead() != reads {
		t.Error("read-ahead neighbours of a failed demand block were not installed")
	}
}

// TestVerifyReportsDamage runs the offline verifier against a clean and
// a bit-flipped file.
func TestVerifyReportsDamage(t *testing.T) {
	path, _, _, _ := writeFixtureFile(t, 500, 25, 6, 9)
	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Version != Version || rep.Rows != 500 {
		t.Fatalf("clean file: %+v", rep)
	}

	probe, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	off := probe.dir[1].offs[7] + 1
	probe.Close()
	flipByte(t, path, off)

	rep, err = Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.BadBlocks != 1 {
		t.Fatalf("damaged file: %+v", rep)
	}
	c := rep.Cols[1]
	if c.BadBlocks != 1 || len(c.BadBlockIDs) != 1 || c.BadBlockIDs[0] != 7 {
		t.Fatalf("damage location: %+v", c)
	}
	if len(c.Errors) != 1 || c.Errors[0].Kind != ErrChecksum {
		t.Fatalf("damage kind: %+v", c.Errors)
	}
}
