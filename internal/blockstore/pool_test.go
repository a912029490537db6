package blockstore

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

func openFixtureStore(t *testing.T, rows, blockSize, dictLen int, seed uint64) (*Store, *Meta, [][]float64, [][]uint32) {
	t.Helper()
	path, meta, floats, codes := writeFixtureFile(t, rows, blockSize, dictLen, seed)
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, meta, floats, codes
}

// TestPoolHitMiss pins the basic caching contract: the first pin
// misses and reads exactly its extent — the demand block and the
// following extentBlocks-1 blocks of the column — in one physical
// read; a pin of any block in the extent hits without a read; and the
// decoded data is correct.
func TestPoolHitMiss(t *testing.T) {
	s, meta, floats, _ := openFixtureStore(t, 500, 25, 4, 21) // 20 blocks
	p := NewPool(1 << 20)
	defer p.Close()

	f1, err := p.PinFloat(s, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	start := 3 * meta.BlockSize
	for i, v := range f1.Floats() {
		if math.Float64bits(v) != math.Float64bits(floats[0][start+i]) {
			t.Fatalf("row %d mismatch", i)
		}
	}
	f2, err := p.PinFloat(s, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f1 {
		t.Error("second pin returned a different frame")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Prefetched != extentBlocks-1 {
		t.Errorf("hits=%d misses=%d prefetched=%d, want 1/1/%d", st.Hits, st.Misses, st.Prefetched, extentBlocks-1)
	}
	if got := s.BlocksRead(); got != extentBlocks {
		t.Errorf("BlocksRead = %d, want %d (one extent; a hit must not re-read)", got, extentBlocks)
	}
	p.Unpin(f1)
	p.Unpin(f2)

	// Still cached after full unpin: a third pin is a hit.
	f3, err := p.PinFloat(s, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().Hits != 2 {
		t.Errorf("hits=%d after re-pin, want 2", p.Stats().Hits)
	}
	p.Unpin(f3)

	// Every read-ahead block of the extent hits with its own data.
	for b := 4; b < 3+extentBlocks; b++ {
		f, err := p.PinFloat(s, 0, b)
		if err != nil {
			t.Fatal(err)
		}
		start := b * meta.BlockSize
		for i, v := range f.Floats() {
			if math.Float64bits(v) != math.Float64bits(floats[0][start+i]) {
				t.Fatalf("read-ahead block %d row %d mismatch", b, i)
			}
		}
		p.Unpin(f)
	}
	if got := s.BlocksRead(); got != extentBlocks {
		t.Errorf("BlocksRead = %d after pinning the extent, want %d", got, extentBlocks)
	}
	// The next block past the extent is the column's last: one read.
	f4, err := p.PinFloat(s, 0, 3+extentBlocks)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f4)
	if got := s.BlocksRead(); got != extentBlocks+1 {
		t.Errorf("BlocksRead = %d, want %d (the column ends one block later)", got, extentBlocks+1)
	}
	if st := p.Stats(); st.Misses != 2 || st.Prefetched != extentBlocks-1 || st.Hits != 2+extentBlocks-1 {
		t.Errorf("final hits=%d misses=%d prefetched=%d", st.Hits, st.Misses, st.Prefetched)
	}
}

// TestPoolEviction forces the working set past the budget and checks
// that unpinned frames are evicted LRU-first while pinned frames
// survive. Read-ahead frames enter the LRU unpinned, in block order,
// as the extent lands; a demand frame enters it on its unpin.
func TestPoolEviction(t *testing.T) {
	s, meta, _, _ := openFixtureStore(t, 2000, 25, 4, 22) // 80 blocks
	// Budget of exactly two extents of float blocks (25 rows × 8 bytes).
	p := NewPool(2 * extentBlocks * 25 * 8)
	defer p.Close()
	const E = extentBlocks

	// Extent A = [0, E): block 0 stays pinned. Extent B = [E, 2E) fills
	// the budget exactly. Extent C = [2E, 3E) must then evict E frames
	// LRU-first: A's 15 read-ahead frames, then B's oldest, block E+1.
	pinned, err := p.PinFloat(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(pinned)
	for _, b := range []int{E, 2 * E} {
		f, err := p.PinFloat(s, 0, b)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
	}
	st := p.Stats()
	if st.Misses != 3 || st.Evictions != E {
		t.Fatalf("misses=%d evictions=%d, want 3/%d", st.Misses, st.Evictions, E)
	}
	if st.UsedBytes != st.BudgetBytes {
		t.Errorf("used %d, want exactly the budget %d", st.UsedBytes, st.BudgetBytes)
	}

	// pinReads pins and unpins block b and returns the blocks it read.
	pinReads := func(b int) int64 {
		t.Helper()
		reads := s.BlocksRead()
		f, err := p.PinFloat(s, 0, b)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
		return s.BlocksRead() - reads
	}
	// Survivors — the pinned block, B's demand block (unpinned last, so
	// newer than its read-ahead) and B's newer read-ahead — hit.
	for _, b := range []int{0, E, E + 2, 2*E - 1, 2 * E, 3*E - 1} {
		if n := pinReads(b); n != 0 {
			t.Errorf("block %d: %d reads, want a hit", b, n)
		}
	}
	// Block E+1 was evicted: its extent stops at resident block E+2.
	if n := pinReads(E + 1); n != 1 {
		t.Errorf("block %d: %d reads, want 1", E+1, n)
	}
	// A's read-ahead was evicted: block 1's extent stops at block E.
	if n := pinReads(1); n != E-1 {
		t.Errorf("block 1: %d reads, want %d", n, E-1)
	}
	if st := p.Stats(); st.UsedBytes > st.BudgetBytes {
		t.Errorf("used %d exceeds budget %d after unpins", st.UsedBytes, st.BudgetBytes)
	}
	_ = meta
}

// TestPoolConcurrentPins hammers the pool from many goroutines over a
// tiny budget, checking data integrity under constant eviction and the
// singleflight property (run with -race).
func TestPoolConcurrentPins(t *testing.T) {
	s, meta, floats, codes := openFixtureStore(t, 2000, 25, 5, 23)
	p := NewPool(6 * 25 * 8) // ~6 blocks: constant eviction pressure
	defer p.Close()

	nb := meta.NumBlocks()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed*3+1))
			for trial := 0; trial < 300; trial++ {
				b := int(rng.Uint32N(uint32(nb)))
				start := b * meta.BlockSize
				n := meta.BlockRows(b)
				if rng.Uint32N(2) == 0 {
					f, err := p.PinFloat(s, 0, b)
					if err != nil {
						errs <- err
						return
					}
					for i := 0; i < n; i++ {
						if math.Float64bits(f.Floats()[i]) != math.Float64bits(floats[0][start+i]) {
							t.Errorf("float block %d row %d corrupt", b, i)
							p.Unpin(f)
							return
						}
					}
					p.Unpin(f)
				} else {
					f, err := p.PinCat(s, 1, b)
					if err != nil {
						errs <- err
						return
					}
					for i := 0; i < n; i++ {
						if f.Codes()[i] != codes[1][start+i] {
							t.Errorf("cat block %d row %d corrupt", b, i)
							p.Unpin(f)
							return
						}
					}
					p.Unpin(f)
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Hits+st.Misses != 8*300 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*300)
	}
}

// TestPoolSingleflight checks that concurrent pinners of any block of
// one in-flight extent wait on that one read: the extent's loader is
// held inside its fault hook while pinners of every block in the
// extent arrive, and the whole storm costs exactly one extent read.
func TestPoolSingleflight(t *testing.T) {
	s, _, _, _ := openFixtureStore(t, 1000, 25, 4, 24) // 40 blocks
	p := NewPool(1 << 20)
	defer p.Close()

	const first = 7
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.SetFault(func(col, block, attempt int) error {
		if col == 0 && block == first {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		return nil
	})

	loader := make(chan error, 1)
	go func() {
		f, err := p.PinFloat(s, 0, first)
		if err == nil {
			p.Unpin(f)
		}
		loader <- err
	}()
	<-entered // the extent is claimed and its read is in flight

	const G = 2 * extentBlocks
	var wg sync.WaitGroup
	frames := make([]*Frame, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, err := p.PinFloat(s, 0, first+g%extentBlocks)
			if err != nil {
				t.Error(err)
				return
			}
			frames[g] = f
		}(g)
	}
	// Give the pinners time to reach the wait; the counts below hold
	// whichever side of the read each pinner arrives on.
	time.Sleep(20 * time.Millisecond)
	if got := s.BlocksRead(); got != extentBlocks {
		t.Errorf("BlocksRead = %d while the extent is in flight, want %d", got, extentBlocks)
	}
	close(release)
	wg.Wait()
	if err := <-loader; err != nil {
		t.Fatal(err)
	}
	if got := s.BlocksRead(); got != extentBlocks {
		t.Errorf("BlocksRead = %d, want %d (singleflight per extent)", got, extentBlocks)
	}
	if st := p.Stats(); st.Misses != 1 || st.Hits != G {
		t.Errorf("misses=%d hits=%d, want 1/%d", st.Misses, st.Hits, G)
	}
	for _, f := range frames {
		p.Unpin(f)
	}
}

// TestPoolPrefetch checks extent read-ahead on float and categorical
// columns: one pin reads exactly its extent, which stops at the
// column's end or at the first block already resident, and pins of the
// read-ahead blocks issue no read. Prefetched counts the read-ahead
// segments, so Misses + Prefetched is the segments physically read.
func TestPoolPrefetch(t *testing.T) {
	s, meta, _, codes := openFixtureStore(t, 500, 25, 4, 25) // 20 blocks
	p := NewPool(1 << 20)
	defer p.Close()

	// Column 2 (float): block 9 is resident, so block 5's extent is 5..8.
	f9, err := p.PinFloat(s, 2, 9) // extent 9..19, to the column's end
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f9)
	f5, err := p.PinFloat(s, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f5)
	if got := s.BlocksRead(); got != 11+4 {
		t.Fatalf("BlocksRead = %d, want %d (extents 9..19 and 5..8)", got, 11+4)
	}
	// Column 1 (categorical) has its own frames: block 5 reads 5..19.
	c5, err := p.PinCat(s, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(c5)
	if got := s.BlocksRead(); got != 15+15 {
		t.Fatalf("BlocksRead = %d, want %d", got, 15+15)
	}
	reads := s.BlocksRead()
	for b := 5; b < meta.NumBlocks(); b++ {
		f, err := p.PinFloat(s, 2, b)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
		c, err := p.PinCat(s, 1, b)
		if err != nil {
			t.Fatal(err)
		}
		start := b * meta.BlockSize
		for i, v := range c.Codes() {
			if v != codes[1][start+i] {
				t.Fatalf("read-ahead cat block %d row %d mismatch", b, i)
			}
		}
		p.Unpin(c)
	}
	if s.BlocksRead() != reads {
		t.Error("pin of a read-ahead block issued a physical read")
	}
	st := p.Stats()
	if st.Misses != 3 || st.Prefetched != 10+3+14 {
		t.Errorf("misses=%d prefetched=%d, want 3/%d", st.Misses, st.Prefetched, 10+3+14)
	}
	if st.Misses+st.Prefetched != s.BlocksRead() {
		t.Errorf("misses+prefetched = %d, store read %d segments", st.Misses+st.Prefetched, s.BlocksRead())
	}
}

// TestPoolWarmNoAlloc checks a warmed pool pins and unpins without
// allocating — required to keep steady-state rounds allocation-free.
// The warm-hit case pins one cached block; the circular-scan case
// sweeps float and categorical columns around a table whose decoded
// size is twice the budget, so every pass exercises the extent miss
// path, the shared read buffer, evictions and frame reuse.
func TestPoolWarmNoAlloc(t *testing.T) {
	s, meta, _, _ := openFixtureStore(t, 4000, 25, 4, 26) // 160 blocks
	t.Run("hit", func(t *testing.T) {
		p := NewPool(1 << 20)
		defer p.Close()
		f, err := p.PinFloat(s, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
		allocs := testing.AllocsPerRun(100, func() {
			f, err := p.PinFloat(s, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(f)
		})
		if allocs != 0 {
			t.Errorf("warm pin/unpin allocates %v per op, want 0", allocs)
		}
	})
	t.Run("circular-half", func(t *testing.T) {
		p := NewPool(int64(meta.Rows) * (8 + 4) / 2)
		defer p.Close()
		scan := func() {
			for b := 0; b < meta.NumBlocks(); b++ {
				f, err := p.PinFloat(s, 0, b)
				if err != nil {
					t.Fatal(err)
				}
				c, err := p.PinCat(s, 1, b)
				if err != nil {
					t.Fatal(err)
				}
				p.Unpin(f)
				p.Unpin(c)
			}
		}
		scan()
		scan()
		before := p.Stats()
		allocs := testing.AllocsPerRun(5, scan)
		after := p.Stats()
		if after.Misses == before.Misses || after.Evictions == before.Evictions {
			t.Fatalf("scan stayed warm (misses %d→%d, evictions %d→%d): not a miss-path test",
				before.Misses, after.Misses, before.Evictions, after.Evictions)
		}
		if allocs != 0 {
			t.Errorf("circular scan at half budget allocates %v per pass, want 0", allocs)
		}
	})
}

// BenchmarkPoolPin measures the per-pin cost of the buffer pool: a warm
// hit on one cached block, and a circular scan over a float and a
// categorical column at half the decoded size, where every extentBlocks
// pins of a column cost one extent read plus the evictions that make
// room for it. ns/op is per pin.
//
//	go test ./internal/blockstore/ -run '^$' -bench BenchmarkPoolPin
func BenchmarkPoolPin(b *testing.B) {
	path, meta, _, _ := writeFixtureFile(b, 20_000, 25, 8, 27) // 800 blocks
	s, err := Open(path, OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.Run("warm-hit", func(b *testing.B) {
		p := NewPool(1 << 20)
		defer p.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := p.PinFloat(s, 0, 2)
			if err != nil {
				b.Fatal(err)
			}
			p.Unpin(f)
		}
	})
	b.Run("circular-half", func(b *testing.B) {
		p := NewPool(int64(meta.Rows) * (8 + 4) / 2)
		defer p.Close()
		nb := meta.NumBlocks()
		pin := func(i int) {
			blk := (i / 2) % nb
			var f *Frame
			var err error
			if i%2 == 0 {
				f, err = p.PinFloat(s, 0, blk)
			} else {
				f, err = p.PinCat(s, 1, blk)
			}
			if err != nil {
				b.Fatal(err)
			}
			p.Unpin(f)
		}
		for i := 0; i < 4*nb; i++ { // two warm-up passes
			pin(i)
		}
		s0, r0 := p.Stats(), s.BlocksRead()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pin(i)
		}
		b.StopTimer()
		s1 := p.Stats()
		b.ReportMetric(100*float64(s1.Hits-s0.Hits)/float64(b.N), "hit-%")
		b.ReportMetric(float64(s.BlocksRead()-r0)/float64(b.N), "segments-read/pin")
	})
}
