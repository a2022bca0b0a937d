package ncfile

import (
	"fmt"
	"io"
	"os"

	"sidr/internal/coords"
)

// File is an open ncfile container supporting coordinate-based hyperslab
// reads and writes. It is safe for concurrent reads (ReadSlab uses
// positional IO) but writes must be externally serialised per region.
type File struct {
	f      *os.File
	header *Header
	path   string
}

// Create writes a new container at path with the given header. The data
// payload is materialised immediately: fill holds the initial value for
// every element of every variable (the "sentinel" when building sparse
// output files; zero is typical for dense files about to be fully
// written).
func Create(path string, h *Header, fill float64) (*File, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	if err := h.assignOffsets(); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := h.encode(f); err != nil {
		f.Close()
		return nil, err
	}
	// Materialise every variable's payload with the fill value, streaming
	// a reused buffer so huge files do not require huge memory.
	const bufElems = 64 * 1024
	buf := make([]byte, bufElems*8)
	for _, v := range h.Vars {
		shape, err := h.VarShape(v.Name)
		if err != nil {
			f.Close()
			return nil, err
		}
		var one [8]byte
		encodeValue(v.Type, fill, one[:])
		for i := 0; i < bufElems; i++ {
			copy(buf[i*8:], one[:])
		}
		remaining := shape.Size()
		for remaining > 0 {
			n := int64(bufElems)
			if remaining < n {
				n = remaining
			}
			if _, err := f.Write(buf[:n*8]); err != nil {
				f.Close()
				return nil, fmt.Errorf("ncfile: filling %q: %w", v.Name, err)
			}
			remaining -= n
		}
	}
	return &File{f: f, header: h, path: path}, nil
}

// CreateEmpty writes a new container whose payload space is allocated via
// truncation rather than explicit writes. On filesystems with sparse-file
// support this is nearly free — it models the cheap allocation of a dense
// output file that a task will fully overwrite, as opposed to Create with
// a sentinel which pays for every byte.
func CreateEmpty(path string, h *Header) (*File, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	if err := h.assignOffsets(); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := h.encode(f); err != nil {
		f.Close()
		return nil, err
	}
	total, err := h.TotalSize()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(total); err != nil {
		f.Close()
		return nil, err
	}
	return &File{f: f, header: h, path: path}, nil
}

// Open opens an existing container read-write.
func Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &File{f: f, header: h, path: path}, nil
}

// Header returns the container's structural metadata. Callers must not
// mutate it.
func (fl *File) Header() *Header { return fl.header }

// Path returns the file's path.
func (fl *File) Path() string { return fl.path }

// Close flushes and closes the underlying file.
func (fl *File) Close() error { return fl.f.Close() }

// Sync flushes file contents to stable storage.
func (fl *File) Sync() error { return fl.f.Sync() }

// Size returns the current byte size of the file on disk.
func (fl *File) Size() (int64, error) {
	st, err := fl.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// slabRuns invokes fn for every maximal contiguous element run of slab
// within a variable of shape full, passing the linear element offset of
// the run's start and its length. Runs follow row-major order, so
// concatenating them yields the slab's values in row-major order.
func slabRuns(full coords.Shape, slab coords.Slab, fn func(offset, length int64) error) error {
	if full.Rank() != slab.Rank() {
		return coords.ErrRankMismatch
	}
	fullSlab := coords.Slab{Corner: make(coords.Coord, full.Rank()), Shape: full}
	if !fullSlab.ContainsSlab(slab) {
		return fmt.Errorf("%w: %v in %v", ErrOutOfBound, slab, full)
	}
	rank := slab.Rank()
	runLen := slab.Shape[rank-1]
	// Iterate over the slab collapsed to its leading rank-1 dimensions.
	if rank == 1 {
		off, err := full.Linearize(slab.Corner)
		if err != nil {
			return err
		}
		return fn(off, runLen)
	}
	outer := coords.Slab{
		Corner: slab.Corner[:rank-1].Clone(),
		Shape:  slab.Shape[:rank-1].Clone(),
	}
	var iterErr error
	outer.Each(func(head coords.Coord) bool {
		c := append(head.Clone(), slab.Corner[rank-1])
		off, err := full.Linearize(c)
		if err != nil {
			iterErr = err
			return false
		}
		if err := fn(off, runLen); err != nil {
			iterErr = err
			return false
		}
		return true
	})
	return iterErr
}

// ReadSlab reads the hyperslab of the named variable into a freshly
// allocated row-major []float64.
func (fl *File) ReadSlab(varName string, slab coords.Slab) ([]float64, error) {
	return fl.ReadSlabInto(varName, slab, nil)
}

// ReadSlabInto is ReadSlab writing into dst's backing array when it is
// large enough, so a caller reading slab after slab can reuse one
// buffer. It returns the filled slice.
func (fl *File) ReadSlabInto(varName string, slab coords.Slab, dst []float64) ([]float64, error) {
	v, err := fl.header.Var(varName)
	if err != nil {
		return nil, err
	}
	full, err := fl.header.VarShape(varName)
	if err != nil {
		return nil, err
	}
	out := dst[:0]
	if n := int(slab.Size()); cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]float64, n)
	}
	esz := v.Type.Size()
	var buf []byte
	pos := 0
	err = slabRuns(full, slab, func(off, length int64) error {
		need := length * esz
		if int64(len(buf)) < need {
			buf = make([]byte, need)
		}
		if _, err := fl.f.ReadAt(buf[:need], v.dataOffset+off*esz); err != nil {
			return fmt.Errorf("ncfile: reading %q at %d: %w", varName, off, err)
		}
		for i := int64(0); i < length; i++ {
			out[pos] = decodeValue(v.Type, buf[i*esz:])
			pos++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteSlab writes row-major values into the hyperslab of the named
// variable. len(values) must equal slab.Size().
func (fl *File) WriteSlab(varName string, slab coords.Slab, values []float64) error {
	v, err := fl.header.Var(varName)
	if err != nil {
		return err
	}
	full, err := fl.header.VarShape(varName)
	if err != nil {
		return err
	}
	if int64(len(values)) != slab.Size() {
		return fmt.Errorf("ncfile: %d values for slab of %d elements", len(values), slab.Size())
	}
	esz := v.Type.Size()
	var buf []byte
	pos := 0
	return slabRuns(full, slab, func(off, length int64) error {
		need := length * esz
		if int64(len(buf)) < need {
			buf = make([]byte, need)
		}
		for i := int64(0); i < length; i++ {
			encodeValue(v.Type, values[pos], buf[i*esz:])
			pos++
		}
		if _, err := fl.f.WriteAt(buf[:need], v.dataOffset+off*esz); err != nil {
			return fmt.Errorf("ncfile: writing %q at %d: %w", varName, off, err)
		}
		return nil
	})
}

// ReadAll reads a variable's entire payload; a convenience for small
// files and tests.
func (fl *File) ReadAll(varName string) ([]float64, error) {
	full, err := fl.header.VarShape(varName)
	if err != nil {
		return nil, err
	}
	return fl.ReadSlab(varName, coords.Slab{Corner: make(coords.Coord, full.Rank()), Shape: full})
}

// CountRuns reports how many contiguous byte runs (seeks, effectively) a
// hyperslab access of the named variable requires. Sparse, strided output
// assignments translate into many runs; SIDR's contiguous keyblocks
// translate into few — the effect Table 2 measures.
func (fl *File) CountRuns(varName string, slab coords.Slab) (int64, error) {
	full, err := fl.header.VarShape(varName)
	if err != nil {
		return 0, err
	}
	var n int64
	err = slabRuns(full, slab, func(off, length int64) error {
		n++
		return nil
	})
	return n, err
}

var _ io.Closer = (*File)(nil)
