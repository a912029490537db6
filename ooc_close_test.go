package fastframe

import (
	"context"
	"errors"
	"testing"
)

// TestOutOfCoreCloseReleasesPoolFrames opens two tables on one buffer
// pool and closes the first: its cached frames must stop counting
// against the budget at once — UsedBytes falls by exactly the bytes
// its scans cached — its quarantine entries must go with it, and the
// second table's cached blocks must be untouched, so re-running its
// query is all hits.
func TestOutOfCoreCloseReleasesPoolFrames(t *testing.T) {
	path := writeTempTable(t, smallFlights(t))
	ctx := context.Background()
	pool := NewBufferPool(1 << 26) // holds both tables: nothing is evicted
	defer pool.Close()
	silentRetries(pool)
	a, err := OpenTable(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenTable(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	q := Avg("DepDelay").GroupBy("Airline") // exhaustive under ScanStrategy
	opts := []Option{WithStrategy(ScanStrategy), WithSeed(7)}
	if _, err := a.Query(ctx, q, opts...); err != nil {
		t.Fatal(err)
	}
	// Quarantine one of a's blocks.
	depTime := colIndex(t, a, "DepTime")
	a.InjectStorageFault(func(col, block, attempt int) error {
		if col == depTime && block == 0 {
			return errors.New("injected permanent fault")
		}
		return nil
	})
	_, err = a.Query(ctx, Avg("DepTime"), WithStrategy(ScanStrategy), WithSeed(7))
	if _, col, block, _, ok := StorageFault(err); !ok || col != depTime || block != 0 {
		t.Fatalf("query over a permanently faulted block: want its storage fault, got %v", err)
	}
	s := pool.Stats()
	if s.QuarantinedBlocks != 1 {
		t.Fatalf("QuarantinedBlocks = %d, want 1", s.QuarantinedBlocks)
	}
	usedA := s.UsedBytes

	if _, err := b.Query(ctx, q, opts...); err != nil {
		t.Fatal(err)
	}
	sAB := pool.Stats()
	usedAB := sAB.UsedBytes
	if usedAB <= usedA || sAB.Evictions != 0 {
		t.Fatalf("second table cached nothing (used %d → %d) or the pool evicted", usedA, usedAB)
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	s = pool.Stats()
	if s.UsedBytes != usedAB-usedA {
		t.Errorf("UsedBytes after closing the first table = %d, want %d (the second table's frames only)",
			s.UsedBytes, usedAB-usedA)
	}
	if s.QuarantinedBlocks != 0 {
		t.Errorf("QuarantinedBlocks after close = %d, want 0", s.QuarantinedBlocks)
	}

	if _, err := b.Query(ctx, q, opts...); err != nil {
		t.Fatal(err)
	}
	s2 := pool.Stats()
	if s2.Misses != s.Misses || s2.Hits == s.Hits {
		t.Errorf("second table after the first closed: misses %d → %d, hits %d → %d; want all hits",
			s.Misses, s2.Misses, s.Hits, s2.Hits)
	}
}
