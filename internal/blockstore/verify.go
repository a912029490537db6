package blockstore

// Offline integrity verification: walk every segment of a v3/v4 file
// through the directory, validate checksums (v4) and decodes (all
// versions), and report per-column damage. This is the engine behind
// `ffgen -verify` and fastframe.VerifyTable.

// maxReportedBlocks caps the per-column list of damaged block ids in a
// report; the count keeps going past the cap.
const maxReportedBlocks = 16

// VerifyColumn is one column's damage report.
type VerifyColumn struct {
	Name string
	Kind uint8
	// Blocks is the total block count; BadBlocks how many failed.
	Blocks, BadBlocks int
	// BadBlockIDs lists the first maxReportedBlocks damaged block ids.
	BadBlockIDs []int
	// Errors holds the classified error of each listed bad block.
	Errors []*BlockError
}

// VerifyReport is the result of verifying one file.
type VerifyReport struct {
	Path      string
	Version   uint32
	Rows      int
	BlockSize int
	NumBlocks int
	Cols      []VerifyColumn
	// BadBlocks is the total damaged segment count across columns.
	BadBlocks int
}

// OK reports whether every segment verified and decoded.
func (r *VerifyReport) OK() bool { return r.BadBlocks == 0 }

// Verify opens path and checks its integrity end to end: header and
// footer (checksummed on v4, structurally validated on v3), then every
// data segment — CRC32C on v4, plus a full decode on all versions, so
// v3 files get best-effort corruption detection too. Header or footer
// damage fails the open and is returned as err with a nil report; a
// readable file returns a report, damaged segments and all.
func Verify(path string) (*VerifyReport, error) {
	s, err := Open(path, OpenOptions{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return VerifyStore(s, path)
}

// VerifyStore walks every segment of an open store. The store's fault
// counters are bumped as usual; callers verifying a live table may want
// a separate Open.
func VerifyStore(s *Store, path string) (*VerifyReport, error) {
	m := s.Meta()
	nb := m.NumBlocks()
	rep := &VerifyReport{
		Path:      path,
		Version:   s.Version(),
		Rows:      m.Rows,
		BlockSize: m.BlockSize,
		NumBlocks: nb,
		Cols:      make([]VerifyColumn, len(m.Cols)),
	}
	var fdst []float64
	var cdst []uint32
	var scratch []byte
	for ci := range m.Cols {
		vc := &rep.Cols[ci]
		vc.Name = m.Cols[ci].Name
		vc.Kind = m.Cols[ci].Kind
		vc.Blocks = nb
		for b := 0; b < nb; b++ {
			var err error
			if vc.Kind == KindFloat {
				fdst, scratch, err = s.ReadFloatBlock(ci, b, fdst, scratch)
			} else {
				cdst, scratch, err = s.ReadCatBlock(ci, b, cdst, scratch)
			}
			if err == nil {
				continue
			}
			vc.BadBlocks++
			rep.BadBlocks++
			if len(vc.BadBlockIDs) < maxReportedBlocks {
				vc.BadBlockIDs = append(vc.BadBlockIDs, b)
				if be, ok := err.(*BlockError); ok {
					vc.Errors = append(vc.Errors, be)
				} else {
					vc.Errors = append(vc.Errors, &BlockError{Table: s.Label(), Col: ci, Block: b, Kind: ErrDecode, Err: err})
				}
			}
		}
	}
	return rep, nil
}
