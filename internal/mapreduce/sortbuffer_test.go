package mapreduce

import "testing"

// TestSortBufferBoundedMatchesUnbounded: bounding the Map-side sort
// buffer (forcing multiple sealed segments plus a map-side merge) must
// not change any result, for every operator class and barrier mode.
func TestSortBufferBoundedMatchesUnbounded(t *testing.T) {
	queries := []string{
		"median temp[0,0 : 28,10] es {7,5}",
		"avg temp[0,0 : 28,10] es {7,5}",
		"filter_gt temp[0,0 : 20,20] es {4,4} param 30",
		"sort temp[0,0 : 12,6] es {3,3}",
	}
	for _, qs := range queries {
		for _, sidr := range []bool{false, true} {
			for _, combine := range []bool{false, true} {
				for _, bound := range []int64{1, 7, 64} {
					q := mustParse(t, qs)
					ref := referenceResults(t, q, synthValue)
					cfg := buildJob(t, q, 3, sidr, combine)
					cfg.SortBufferRecords = bound
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s sidr=%v combine=%v bound=%d: %v", qs, sidr, combine, bound, err)
					}
					checkAgainstReference(t, res, ref)
				}
			}
		}
	}
}

// TestSortBufferAffectsUncombinedPairCount: with combining disabled, a
// tight buffer cannot fold pairs across segments, so the shuffle carries
// more pairs than the unbounded run; with combining enabled the map-side
// merge restores the fully folded count for every operator kind —
// holistic values concatenate across segments just as distributive
// values fold.
func TestSortBufferAffectsUncombinedPairCount(t *testing.T) {
	pairsOut := func(qs string, combine bool, bound int64) int64 {
		t.Helper()
		cfg := buildJob(t, mustParse(t, qs), 2, true, combine)
		cfg.SortBufferRecords = bound
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.MapPairsOut
	}
	const avg = "avg temp[0,0 : 28,10] es {7,5}"
	if u, b := pairsOut(avg, false, 0), pairsOut(avg, false, 5); b <= u {
		t.Fatalf("uncombined: bounded buffer shipped %d pairs, unbounded %d; want more", b, u)
	}
	for _, qs := range []string{avg, "median temp[0,0 : 28,10] es {7,5}"} {
		if u, b := pairsOut(qs, true, 0), pairsOut(qs, true, 5); b != u {
			t.Fatalf("%s: map-side merge did not restore folded count: %d vs %d", qs, b, u)
		}
	}
}

// TestExecMapHolisticOnePairPerKey: with the combiner on, a holistic
// Map task ships exactly one pair per K' key, carrying every one of
// that key's samples (len(Samples) == Count), sorted by key, with the
// keyblock's source count equal to the samples shipped — also when a
// bounded sort buffer splits the split into several segments. With the
// combiner off, every sample ships as its own pair.
func TestExecMapHolisticOnePairPerKey(t *testing.T) {
	for _, qs := range []string{
		"median temp[0,0 : 28,10] es {7,5}",
		"percentile temp[0,0 : 28,10] es {4,5} param 90",
		"sort temp[0,0 : 12,6] es {3,3}",
	} {
		for _, bound := range []int64{0, 3} {
			q := mustParse(t, qs)
			cfg := buildJob(t, q, 3, true, true)
			op, err := q.Op()
			if err != nil {
				t.Fatal(err)
			}
			space, err := q.IntermediateSpace()
			if err != nil {
				t.Fatal(err)
			}
			in := MapInput{Query: q, Op: op, Space: space, Part: cfg.Part, Reader: cfg.Reader, SortBufferRecords: bound}
			for _, combine := range []bool{true, false} {
				in.Combine = combine
				for s, split := range cfg.Splits {
					outs, records, err := ExecMap(in, split)
					if err != nil {
						t.Fatal(err)
					}
					var shipped int64
					for kb, o := range outs {
						var samples int64
						for i, p := range o.Pairs {
							if int64(len(p.Value.Samples)) != p.Value.Count {
								t.Fatalf("%s bound=%d split %d kb %d: key %v carries %d samples, Count %d",
									qs, bound, s, kb, p.Key, len(p.Value.Samples), p.Value.Count)
							}
							if combine && i > 0 && !o.Pairs[i-1].Key.Less(p.Key) {
								t.Fatalf("%s bound=%d split %d kb %d: key %v not strictly after %v (one pair per key)",
									qs, bound, s, kb, p.Key, o.Pairs[i-1].Key)
							}
							if !combine && p.Value.Count != 1 {
								t.Fatalf("%s uncombined: pair %v carries %d samples, want 1", qs, p.Key, p.Value.Count)
							}
							samples += p.Value.Count
						}
						if samples != o.SourceCount {
							t.Fatalf("%s bound=%d split %d kb %d: %d samples shipped, SourceCount %d",
								qs, bound, s, kb, samples, o.SourceCount)
						}
						shipped += samples
					}
					if shipped != records {
						t.Fatalf("%s bound=%d split %d: %d samples shipped for %d records", qs, bound, s, shipped, records)
					}
				}
			}
		}
	}
}

// TestSortBufferWithSpillDir: segments, map-side merge and on-disk spill
// files compose.
func TestSortBufferWithSpillDir(t *testing.T) {
	q := mustParse(t, "median temp[0,0 : 28,10] es {7,5}")
	ref := referenceResults(t, q, synthValue)
	cfg := buildJob(t, q, 2, true, true)
	cfg.SortBufferRecords = 13
	cfg.SpillDir = t.TempDir()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, ref)
}
