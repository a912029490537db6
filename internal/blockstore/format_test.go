package blockstore

import (
	"bytes"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
)

// buildFixture generates a synthetic dataset plus its v3 Meta: one
// smooth float column, one noisy float column, and one categorical
// column with correct zone maps and block bitmap index words.
func buildFixture(rng *rand.Rand, rows, blockSize, dictLen int) (*Meta, [][]float64, [][]uint32) {
	smooth := make([]float64, rows)
	noisy := make([]float64, rows)
	codes := make([]uint32, rows)
	v := 50.0
	for i := 0; i < rows; i++ {
		v += rng.Float64() - 0.5
		smooth[i] = v
		noisy[i] = math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | (1023 << 52)) // finite
		codes[i] = rng.Uint32N(uint32(dictLen))
	}
	meta := &Meta{BlockSize: blockSize, Rows: rows}
	nb := meta.NumBlocks()
	zone := func(vals []float64) (mins, maxs []float64) {
		mins = make([]float64, nb)
		maxs = make([]float64, nb)
		for b := 0; b < nb; b++ {
			start := b * blockSize
			end := min(start+blockSize, rows)
			mins[b], maxs[b] = vals[start], vals[start]
			for _, x := range vals[start+1 : end] {
				mins[b] = math.Min(mins[b], x)
				maxs[b] = math.Max(maxs[b], x)
			}
		}
		return
	}
	sm, sx := zone(smooth)
	nm, nx := zone(noisy)
	dict := make([]string, dictLen)
	words := make([][]uint64, dictLen)
	nw := (nb + 63) / 64
	for c := range dict {
		dict[c] = string(rune('a' + c))
		words[c] = make([]uint64, nw)
	}
	for i, c := range codes {
		b := i / blockSize
		words[c][b/64] |= 1 << (b % 64)
	}
	meta.Cols = []ColumnMeta{
		{Name: "smooth", Kind: KindFloat, BoundsLo: 0, BoundsHi: 100, ZoneMin: sm, ZoneMax: sx},
		{Name: "cat", Kind: KindCat, Dict: dict, IndexWords: words},
		{Name: "noisy", Kind: KindFloat, BoundsLo: 0, BoundsHi: 4, ZoneMin: nm, ZoneMax: nx},
	}
	return meta, [][]float64{smooth, nil, noisy}, [][]uint32{nil, codes, nil}
}

func writeFixture(t testing.TB, meta *Meta, floats [][]float64, codes [][]uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for ci, c := range meta.Cols {
		if c.Kind == KindFloat {
			err = w.WriteFloatColumn(ci, floats[ci])
		} else {
			err = w.WriteCatColumn(ci, codes[ci])
		}
		if err != nil {
			t.Fatalf("write column %d: %v", ci, err)
		}
	}
	n, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if int(n) != buf.Len() {
		t.Fatalf("Finish reported %d bytes, buffer has %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestWriteReadSequential round-trips a file through the streaming
// reader, checking meta and data bit-exactly, including a partial
// trailing block.
func TestWriteReadSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, rows := range []int{25, 26, 1000, 1013} {
		meta, floats, codes := buildFixture(rng, rows, 25, 6)
		data := writeFixture(t, meta, floats, codes)

		r := bytes.NewReader(data)
		var magic [4]byte
		if _, err := r.Read(magic[:]); err != nil || string(magic[:]) != Magic {
			t.Fatalf("magic: %q %v", magic, err)
		}
		var ver [4]byte
		r.Read(ver[:])
		got, gf, gc, err := ReadSequential(r, Version)
		if err != nil {
			t.Fatalf("rows=%d: ReadSequential: %v", rows, err)
		}
		if got.Rows != rows || got.BlockSize != 25 || len(got.Cols) != 3 {
			t.Fatalf("rows=%d: meta = %+v", rows, got)
		}
		for ci, c := range got.Cols {
			want := meta.Cols[ci]
			if c.Name != want.Name || c.Kind != want.Kind {
				t.Fatalf("col %d: %+v", ci, c)
			}
			if c.Kind == KindFloat {
				if len(gf[ci]) != rows {
					t.Fatalf("col %d: %d floats", ci, len(gf[ci]))
				}
				for i := range gf[ci] {
					if math.Float64bits(gf[ci][i]) != math.Float64bits(floats[ci][i]) {
						t.Fatalf("col %d row %d: %v != %v", ci, i, gf[ci][i], floats[ci][i])
					}
				}
				for b := range c.ZoneMin {
					if c.ZoneMin[b] != want.ZoneMin[b] || c.ZoneMax[b] != want.ZoneMax[b] {
						t.Fatalf("col %d zone %d mismatch", ci, b)
					}
				}
			} else {
				if len(gc[ci]) != rows {
					t.Fatalf("col %d: %d codes", ci, len(gc[ci]))
				}
				for i := range gc[ci] {
					if gc[ci][i] != codes[ci][i] {
						t.Fatalf("col %d row %d: %d != %d", ci, i, gc[ci][i], codes[ci][i])
					}
				}
				for d := range c.IndexWords {
					if c.Dict[d] != want.Dict[d] {
						t.Fatalf("col %d dict %d mismatch", ci, d)
					}
					for wi := range c.IndexWords[d] {
						if c.IndexWords[d][wi] != want.IndexWords[d][wi] {
							t.Fatalf("col %d index %d word %d mismatch", ci, d, wi)
						}
					}
				}
			}
		}
	}
}

func writeFixtureFile(t testing.TB, rows, blockSize, dictLen int, seed uint64) (string, *Meta, [][]float64, [][]uint32) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	meta, floats, codes := buildFixture(rng, rows, blockSize, dictLen)
	data := writeFixture(t, meta, floats, codes)
	path := filepath.Join(t.TempDir(), "fixture.ffs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, meta, floats, codes
}

// TestStoreRandomAccess opens a written file and reads blocks in random
// order through both backends, checking bit-exact decode.
func TestStoreRandomAccess(t *testing.T) {
	path, meta, floats, codes := writeFixtureFile(t, 1013, 25, 6, 42)
	for _, mmap := range []bool{false, true} {
		s, err := Open(path, OpenOptions{Mmap: mmap})
		if err != nil {
			t.Fatalf("mmap=%v: Open: %v", mmap, err)
		}
		rng := rand.New(rand.NewPCG(9, 10))
		nb := meta.NumBlocks()
		var fdst []float64
		var cdst []uint32
		var scratch []byte
		for trial := 0; trial < 200; trial++ {
			ci := int(rng.Uint32N(uint32(len(meta.Cols))))
			b := int(rng.Uint32N(uint32(nb)))
			start := b * meta.BlockSize
			n := meta.BlockRows(b)
			if meta.Cols[ci].Kind == KindFloat {
				fdst, scratch, err = s.ReadFloatBlock(ci, b, fdst, scratch)
				if err != nil {
					t.Fatalf("mmap=%v: ReadFloatBlock(%d,%d): %v", mmap, ci, b, err)
				}
				for i := 0; i < n; i++ {
					if math.Float64bits(fdst[i]) != math.Float64bits(floats[ci][start+i]) {
						t.Fatalf("mmap=%v: col %d block %d row %d mismatch", mmap, ci, b, i)
					}
				}
			} else {
				cdst, scratch, err = s.ReadCatBlock(ci, b, cdst, scratch)
				if err != nil {
					t.Fatalf("mmap=%v: ReadCatBlock(%d,%d): %v", mmap, ci, b, err)
				}
				for i := 0; i < n; i++ {
					if cdst[i] != codes[ci][start+i] {
						t.Fatalf("mmap=%v: col %d block %d row %d mismatch", mmap, ci, b, i)
					}
				}
			}
		}
		if s.BlocksRead() != 200 {
			t.Errorf("mmap=%v: BlocksRead = %d, want 200", mmap, s.BlocksRead())
		}
		if s.BytesRead() <= 0 {
			t.Errorf("mmap=%v: BytesRead = %d", mmap, s.BytesRead())
		}
		if err := s.Close(); err != nil {
			t.Fatalf("mmap=%v: Close: %v", mmap, err)
		}
	}
}

// TestOpenRejectsOldAndCorrupt pins the error paths: v2 files have no
// directory, and a truncated footer must not open.
func TestOpenRejectsOldAndCorrupt(t *testing.T) {
	dir := t.TempDir()

	v2 := filepath.Join(dir, "v2.ffs")
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.Write([]byte{2, 0, 0, 0})
	buf.Write(make([]byte, 64))
	if err := os.WriteFile(v2, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(v2, OpenOptions{}); err == nil {
		t.Error("v2 file opened as a block store")
	}

	path, _, _, _ := writeFixtureFile(t, 100, 25, 4, 77)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.ffs")
	if err := os.WriteFile(trunc, data[:len(data)-6], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(trunc, OpenOptions{}); err == nil {
		t.Error("truncated file opened without error")
	}
}

// TestWriterOrderEnforced pins the schema-order contract of the writer.
func TestWriterOrderEnforced(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	meta, floats, _ := buildFixture(rng, 100, 25, 4)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFloatColumn(2, floats[2]); err == nil {
		t.Error("out-of-order column write accepted")
	}
	if err := w.WriteCatColumn(0, make([]uint32, 100)); err == nil {
		t.Error("kind-mismatched column write accepted")
	}
	if _, err := w.Finish(); err == nil {
		t.Error("Finish with missing columns accepted")
	}
}
