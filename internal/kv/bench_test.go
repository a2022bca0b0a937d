package kv

import (
	"bytes"
	"math/rand"
	"testing"

	"sidr/internal/coords"
)

// benchStreams builds n sorted streams of m pairs each.
func benchStreams(n, m int) [][]Pair {
	r := rand.New(rand.NewSource(1))
	streams := make([][]Pair, n)
	for s := range streams {
		ps := make([]Pair, m)
		for i := range ps {
			ps[i] = Pair{Key: coords.NewCoord(r.Int63n(1000), r.Int63n(100)), Value: NewValue(r.NormFloat64(), false)}
		}
		SortPairs(ps)
		streams[s] = ps
	}
	return streams
}

func BenchmarkMergeSorted(b *testing.B) {
	streams := benchStreams(16, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := MergeSorted(streams); len(out) == 0 {
			b.Fatal("empty merge")
		}
	}
}

func BenchmarkConcatSortMerge(b *testing.B) {
	// The naive alternative to MergeSorted, for comparison.
	streams := benchStreams(16, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var all []Pair
		for _, s := range streams {
			for _, p := range s {
				all = append(all, Pair{Key: p.Key, Value: p.Value.Clone()})
			}
		}
		SortPairs(all)
		if out := MergePairs(all); len(out) == 0 {
			b.Fatal("empty merge")
		}
	}
}

func BenchmarkSpillWriteRead(b *testing.B) {
	streams := benchStreams(1, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteSpill(&buf, 2, 5000, streams[0]); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadSpill(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// holisticPairs builds the spill shape a combined holistic Map task
// produces: one pair per key carrying all of that key's samples.
func holisticPairs(keys, samplesPerKey int) []Pair {
	r := rand.New(rand.NewSource(1))
	pairs := make([]Pair, keys)
	for i := range pairs {
		var v Value
		for s := 0; s < samplesPerKey; s++ {
			v.Add(r.NormFloat64(), true)
		}
		pairs[i] = Pair{Key: coords.NewCoord(int64(i/64), int64(i%64), 0), Value: v}
	}
	return pairs
}

// BenchmarkSpillReadV3Holistic decodes a 1.6 MB holistic v3 spill
// (8192 keys × 16 samples, two default-size blocks). MB/s is decode
// throughput over the encoded bytes; allocs/op should track the block
// count, not the pair count.
func BenchmarkSpillReadV3Holistic(b *testing.B) {
	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "deflate"
		}
		b.Run(name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := WriteSpillV3(&buf, 3, 8192*16, holisticPairs(8192, 16), V3Options{Compress: compress}); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, pairs, err := ReadSpill(bytes.NewReader(data)); err != nil || len(pairs) != 8192 {
					b.Fatalf("decoded %d pairs: %v", len(pairs), err)
				}
			}
		})
	}
}
