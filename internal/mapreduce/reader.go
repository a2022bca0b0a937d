package mapreduce

import (
	"fmt"
	"sync"

	"sidr/internal/coords"
	"sidr/internal/hdfs"
	"sidr/internal/ncfile"
)

// FileReader reads splits from an ncfile container — the SciHadoop
// record reader whose input and output both live in logical coordinate
// space (§2.4.1). Reads stream one leading-dimension row at a time, so
// memory stays bounded by a row rather than the whole split.
type FileReader struct {
	File *ncfile.File
	Var  string
}

// rowBufs recycles FileReader row buffers across ReadSplit calls, which
// are many and short: every Map task and every block of a registration's
// index build reads its own split. emit receives values, never the
// buffer, so a buffer is free again when ReadSplit returns.
var rowBufs = sync.Pool{New: func() any { return new([]float64) }}

// ReadSplit implements RecordReader.
func (r *FileReader) ReadSplit(slab coords.Slab, emit func(coords.Coord, float64) error) error {
	rows, err := slab.SplitDim(0, 1)
	if err != nil {
		return err
	}
	buf := rowBufs.Get().(*[]float64)
	defer rowBufs.Put(buf)
	for _, row := range rows {
		vals, err := r.File.ReadSlabInto(r.Var, row, *buf)
		if err != nil {
			return err
		}
		*buf = vals
		i := 0
		var emitErr error
		row.EachReuse(func(k coords.Coord) bool {
			if err := emit(k, vals[i]); err != nil {
				emitErr = err
				return false
			}
			i++
			return true
		})
		if emitErr != nil {
			return emitErr
		}
	}
	return nil
}

// FuncReader synthesises values from a pure function of the coordinate —
// datasets too large to materialise (or defined analytically) without a
// file.
type FuncReader struct {
	Fn func(coords.Coord) float64
}

// ReadSplit implements RecordReader.
func (r *FuncReader) ReadSplit(slab coords.Slab, emit func(coords.Coord, float64) error) error {
	var emitErr error
	slab.EachReuse(func(k coords.Coord) bool {
		if err := emit(k, r.Fn(k)); err != nil {
			emitErr = err
			return false
		}
		return true
	})
	return emitErr
}

// GenerateSplits carves the query input into contiguous leading-dimension
// bands of roughly targetPoints points each — SciHadoop's
// logical-coordinate split generation. When ns and file are given, each
// split gets locality hints from the block store assuming a row-major
// byte layout of bytesPerPoint bytes per element.
func GenerateSplits(input coords.Slab, targetPoints int64, ns *hdfs.Namespace, file string, bytesPerPoint int64) ([]InputSplit, error) {
	if targetPoints <= 0 {
		return nil, fmt.Errorf("mapreduce: targetPoints must be positive, got %d", targetPoints)
	}
	rowSize := input.Shape.Size() / input.Shape[0]
	rows := targetPoints / rowSize
	if rows < 1 {
		rows = 1
	}
	slabs, err := input.SplitDim(0, rows)
	if err != nil {
		return nil, err
	}
	splits := make([]InputSplit, len(slabs))
	for i, s := range slabs {
		splits[i] = InputSplit{ID: i, Slab: s}
		if ns != nil && file != "" {
			off, err := input.Linearize(s.Corner)
			if err != nil {
				return nil, err
			}
			hosts, err := ns.RangeHosts(file, off*bytesPerPoint, s.Size()*bytesPerPoint)
			if err != nil {
				return nil, err
			}
			splits[i].Hosts = hosts
		}
	}
	return splits, nil
}

// Slabs extracts the slab of each split, the form the dependency planner
// consumes.
func Slabs(splits []InputSplit) []coords.Slab {
	out := make([]coords.Slab, len(splits))
	for i, s := range splits {
		out[i] = s.Slab
	}
	return out
}
