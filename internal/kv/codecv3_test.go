package kv

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"sidr/internal/coords"
)

// encodeSpillV3 is a test helper that must never fail for valid inputs.
func encodeSpillV3(t testing.TB, rank int, sourceCount int64, pairs []Pair, opts V3Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSpillV3(&buf, rank, sourceCount, pairs, opts); err != nil {
		t.Fatalf("WriteSpillV3: %v", err)
	}
	return buf.Bytes()
}

// v3TestPairs builds a deterministic multi-block workload covering the
// codec's shapes: aggregate-only values, sampled values, special floats.
func v3TestPairs(n int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		v := Value{Sum: float64(i) * 1.5, SumSq: float64(i * i), Min: -float64(i), Max: float64(i), Count: int64(i + 1)}
		if i%3 == 0 {
			v.Samples = []float64{float64(i) / 7, math.Inf(1)}
		}
		if i%11 == 0 {
			v.Max = math.NaN()
		}
		pairs[i] = Pair{Key: coords.NewCoord(int64(i), int64(i*2), -int64(i)), Value: v}
	}
	return pairs
}

// pairsEqual compares pairs through their serialised v2 bytes, which
// makes NaN-carrying values comparable.
func pairsEqual(t *testing.T, rank int, a, b []Pair) bool {
	t.Helper()
	return bytes.Equal(encodeSpill(t, rank, 0, a), encodeSpill(t, rank, 0, b))
}

// TestSpillV3RoundTrip: every framing (single block, multi block,
// remainder block, empty, compressed) decodes back to the written
// pairs with the header intact.
func TestSpillV3RoundTrip(t *testing.T) {
	cases := []struct {
		name string
		n    int
		opts V3Options
	}{
		{name: "empty", n: 0, opts: V3Options{}},
		{name: "single-block", n: 10, opts: V3Options{}},
		{name: "multi-block", n: 100, opts: V3Options{BlockPairs: 16}},
		{name: "exact-blocks", n: 64, opts: V3Options{BlockPairs: 16}},
		{name: "compressed", n: 100, opts: V3Options{BlockPairs: 16, Compress: true}},
		{name: "compressed-single", n: 5, opts: V3Options{Compress: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pairs := v3TestPairs(tc.n)
			data := encodeSpillV3(t, 3, int64(tc.n)*10+7, pairs, tc.opts)
			h, got, err := ReadSpill(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadSpill: %v", err)
			}
			if h.Version != 3 || h.Rank != 3 || h.SourceCount != int64(tc.n)*10+7 || h.Pairs != tc.n {
				t.Fatalf("header = %+v", h)
			}
			if tc.opts.Compress != (h.Flags&V3FlagDeflate != 0) {
				t.Fatalf("compress flag = %x, opts = %+v", h.Flags, tc.opts)
			}
			if !pairsEqual(t, 3, pairs, got) {
				t.Fatal("decoded pairs differ from written pairs")
			}
		})
	}
}

// TestSpillV3CrossReadMatchesV2: the same pairs written as v2 and v3
// decode to identical contents — the Reduce-side merge cannot tell the
// formats apart, so mixed-version shuffles stay byte-identical.
func TestSpillV3CrossReadMatchesV2(t *testing.T) {
	pairs := v3TestPairs(77)
	v2 := encodeSpill(t, 3, 1234, pairs)
	v3 := encodeSpillV3(t, 3, 1234, pairs, V3Options{BlockPairs: 13, Compress: true})

	h2, got2, err := ReadSpill(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	h3, got3, err := ReadSpill(bytes.NewReader(v3))
	if err != nil {
		t.Fatal(err)
	}
	if h2.Rank != h3.Rank || h2.SourceCount != h3.SourceCount || h2.Pairs != h3.Pairs {
		t.Fatalf("headers disagree: v2 %+v, v3 %+v", h2, h3)
	}
	if !pairsEqual(t, 3, got2, got3) {
		t.Fatal("v2 and v3 decode to different pairs")
	}
	// The annotation shares v2's byte offset, so header-only readers and
	// the kv-count tamper harnesses work on both formats.
	if h, err := ReadSpillHeader(io.LimitReader(bytes.NewReader(v3), spillHeaderLenV3)); err != nil {
		t.Fatalf("v3 header-only read: %v", err)
	} else if h.SourceCount != 1234 || h.Blocks == 0 {
		t.Fatalf("v3 header = %+v", h)
	}
}

// TestSpillV3DetectsBitFlip: flipping any single bit outside the
// sourceCount annotation must be rejected — payload flips by the block
// CRC, header flips by the CRC seed or structural validation. The
// annotation bytes (10..18) stay deliberately unprotected: the §3.2.1
// kv-count gate verifies them independently.
func TestSpillV3DetectsBitFlip(t *testing.T) {
	for _, opts := range []V3Options{{BlockPairs: 4}, {BlockPairs: 4, Compress: true}} {
		data := encodeSpillV3(t, 2, 42, []Pair{
			{Key: coords.NewCoord(1, 2), Value: Value{Sum: 4, SumSq: 16, Min: 4, Max: 4, Count: 1}},
			{Key: coords.NewCoord(3, 4), Value: Value{Count: 2, Samples: []float64{0.5, 0.25}}},
			{Key: coords.NewCoord(5, 6), Value: Value{Sum: -1, Count: 3}},
			{Key: coords.NewCoord(7, 8), Value: Value{Sum: 9, Count: 4}},
			{Key: coords.NewCoord(9, 10), Value: Value{Sum: 1, Count: 5}},
		}, opts)
		for i := 0; i < len(data); i++ {
			if i >= 10 && i < 18 {
				continue // the annotation is the kv-count gate's to verify
			}
			for bit := 0; bit < 8; bit++ {
				flipped := append([]byte(nil), data...)
				flipped[i] ^= 1 << bit
				if _, _, err := ReadSpill(bytes.NewReader(flipped)); err == nil {
					t.Fatalf("flip at byte %d bit %d (compress=%v) decoded without error",
						i, bit, opts.Compress)
				}
			}
		}
		// Annotation tamper must NOT trip a checksum.
		patched := append([]byte(nil), data...)
		patched[10] ^= 0x01
		h, _, err := ReadSpill(bytes.NewReader(patched))
		if err != nil {
			t.Fatalf("sourceCount tamper tripped a checksum: %v", err)
		}
		if h.SourceCount == 42 {
			t.Fatal("tamper did not change the annotation")
		}
	}
}

// TestSpillV3RejectsEveryTruncation: no strict prefix of a valid v3
// spill may decode successfully.
func TestSpillV3RejectsEveryTruncation(t *testing.T) {
	data := encodeSpillV3(t, 3, 99, v3TestPairs(9), V3Options{BlockPairs: 4})
	for n := 0; n < len(data); n++ {
		if _, _, err := ReadSpill(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(data))
		}
	}
}

// TestSpillV3RejectsHugeCounts: implausible counts in the file or block
// headers must fail without materialising per-count memory.
func TestSpillV3RejectsHugeCounts(t *testing.T) {
	data := encodeSpillV3(t, 1, 5, nil, V3Options{})
	// nPairs (u32 at 18..22) to the maximum; nBlocks stays 0, so the
	// block/pair cross-check must reject it.
	for i := 18; i < 22; i++ {
		data[i] = 0xff
	}
	if _, _, err := ReadSpill(bytes.NewReader(data)); err == nil {
		t.Fatal("v3 spill claiming 4 billion pairs decoded without error")
	}
	// A block claiming a gigantic encoded length must be rejected by the
	// plausibility cap, not buffered.
	one := encodeSpillV3(t, 1, 1, []Pair{{Key: coords.NewCoord(7), Value: Value{Count: 1}}}, V3Options{})
	// encLen is bytes 8..12 of the block header at spillHeaderLenV3.
	for i := spillHeaderLenV3 + 8; i < spillHeaderLenV3+12; i++ {
		one[i] = 0xff
	}
	if _, _, err := ReadSpill(bytes.NewReader(one)); err == nil {
		t.Fatal("block claiming 4GB encoded payload decoded without error")
	}
}

// TestSpillV3ChecksumSentinel pins ErrChecksum for a clean payload
// corruption, so the cluster's corrupt-spill re-execution path
// classifies v3 damage exactly like v2 damage.
func TestSpillV3ChecksumSentinel(t *testing.T) {
	data := encodeSpillV3(t, 1, 1, []Pair{{Key: coords.NewCoord(9), Value: Value{Sum: 2, Count: 1}}}, V3Options{})
	data[len(data)-1] ^= 0x80 // inside the (only) block's stored payload
	if _, _, err := ReadSpill(bytes.NewReader(data)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

// v3ReencodeOpts derives re-encode options from a decoded header. For
// any accepted input, ceil(pairs/blocks) applied twice is a fixed point
// of the framing (ceil(n/ceil(n/ceil(n/k))) = ceil(n/ceil(n/k))), which
// gives the fuzz target a deterministic byte-level fixed point even for
// crafted inputs with irregular block sizes.
func v3ReencodeOpts(h SpillHeader) V3Options {
	bp := 1
	if h.Blocks > 0 {
		bp = (h.Pairs + h.Blocks - 1) / h.Blocks
	}
	if bp <= 0 {
		bp = 1
	}
	return V3Options{BlockPairs: bp, Compress: h.Flags&V3FlagDeflate != 0}
}

// FuzzReadSpillV3 feeds arbitrary bytes to the version-dispatching
// decoder with v3 seeds. Properties: no panics; any accepted v3 input
// re-encodes to a byte-identical fixed point (after one framing
// normalisation pass); and the re-encoded bytes reject every single-bit
// flip outside the sourceCount annotation — the per-block CRC32C keeps
// PR 5's never-commit-corrupt-bytes guarantee.
func FuzzReadSpillV3(f *testing.F) {
	f.Add(encodeSpillV3(f, 1, 0, nil, V3Options{}))
	f.Add(encodeSpillV3(f, 3, 1500, v3TestPairs(20), V3Options{BlockPairs: 8}))
	f.Add(encodeSpillV3(f, 3, 77, v3TestPairs(20), V3Options{BlockPairs: 8, Compress: true}))
	f.Add(encodeSpillV3(f, 2, 9, []Pair{
		{Key: coords.NewCoord(9, 9), Value: Value{Count: 3, Samples: []float64{1.5, math.Inf(1), math.NaN()}}},
	}, V3Options{}))
	// Corruption seeds: a flipped payload bit, a truncated block.
	bad := encodeSpillV3(f, 3, 9, v3TestPairs(6), V3Options{BlockPairs: 2})
	bad[len(bad)-1] ^= 0x01
	f.Add(bad)
	f.Add(bad[:len(bad)-7])
	// And a v2 seed, so the dispatcher's other arm stays covered.
	f.Add(encodeSpill(f, 3, 42, v3TestPairs(3)))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, pairs, err := ReadSpill(bytes.NewReader(data))
		if err != nil {
			return // graceful rejection is the required behaviour
		}
		if h.Version != 3 {
			return // v2 fixed point is FuzzReadSpill's property
		}
		if len(pairs) != h.Pairs {
			t.Fatalf("decoded %d pairs, header says %d", len(pairs), h.Pairs)
		}
		var buf bytes.Buffer
		if err := WriteSpillV3(&buf, h.Rank, h.SourceCount, pairs, v3ReencodeOpts(h)); err != nil {
			t.Fatalf("re-encoding accepted spill: %v", err)
		}
		enc1 := append([]byte(nil), buf.Bytes()...)
		h1, pairs1, err := ReadSpill(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("re-decoding re-encoded spill: %v", err)
		}
		if h1.Rank != h.Rank || h1.SourceCount != h.SourceCount || h1.Pairs != h.Pairs || h1.Flags != h.Flags {
			t.Fatalf("header fields changed across re-encode: %+v != %+v", h1, h)
		}
		buf.Reset()
		if err := WriteSpillV3(&buf, h1.Rank, h1.SourceCount, pairs1, v3ReencodeOpts(h1)); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc1, buf.Bytes()) {
			t.Fatalf("encode∘decode is not a fixed point:\n%x\n%x", enc1, buf.Bytes())
		}
		// Per-block CRC: any single-bit flip outside the annotation must
		// reject. TestSpillV3DetectsBitFlip is exhaustive; here a handful
		// of probe positions per input keeps the per-exec cost low enough
		// that corpus minimisation stays productive on one CPU.
		stride := 1 + len(enc1)/16
		for i := 0; i < len(enc1); i += stride {
			if i >= 10 && i < 18 {
				continue // sourceCount: the kv-count gate's bytes
			}
			flipped := append([]byte(nil), enc1...)
			flipped[i] ^= 0x10
			if _, _, err := ReadSpill(bytes.NewReader(flipped)); err == nil {
				t.Fatalf("bit flip at byte %d of re-encoded spill decoded without error", i)
			}
		}
	})
}

// TestSpillV3DecodedSamplesDoNotAlias: decoded pairs share one sample
// slab per block, so appending to one pair's Samples (as a merge does)
// must copy rather than overwrite its neighbour's samples.
func TestSpillV3DecodedSamplesDoNotAlias(t *testing.T) {
	pairs := []Pair{
		{Key: coords.NewCoord(0), Value: Value{Count: 2, Samples: []float64{1, 2}}},
		{Key: coords.NewCoord(1), Value: Value{Count: 2, Samples: []float64{3, 4}}},
		{Key: coords.NewCoord(2), Value: Value{Count: 1, Samples: []float64{5}}},
	}
	for _, compress := range []bool{false, true} {
		data := encodeSpillV3(t, 1, 5, pairs, V3Options{Compress: compress})
		_, got, err := ReadSpill(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got[0].Value.Samples = append(got[0].Value.Samples, 99)
		got[1].Value.Merge(Value{Count: 1, Samples: []float64{98}})
		if s := got[1].Value.Samples; len(s) != 3 || s[0] != 3 || s[1] != 4 || s[2] != 98 {
			t.Fatalf("compress=%v: pair 1 samples = %v", compress, s)
		}
		if s := got[2].Value.Samples; len(s) != 1 || s[0] != 5 {
			t.Fatalf("compress=%v: pair 2 samples overwritten: %v", compress, s)
		}
		if s := got[0].Value.Samples; len(s) != 3 || s[0] != 1 || s[1] != 2 || s[2] != 99 {
			t.Fatalf("compress=%v: pair 0 samples = %v", compress, s)
		}
	}
}
