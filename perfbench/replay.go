package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/kv"
	"sidr/internal/mapreduce"
	"sidr/internal/spillstore"
)

// The replays below re-run single layer functions on the workload's own
// plan and data, outside the timed jobs, to measure layers the program
// exposes no hook inside: the record reader, the spill codec, the
// reduce-side merge and the pack store. Each repeats its operation until
// it has run for at least replayMin, so rates are not single-shot.
const replayMin = 150 * time.Millisecond

// repeatFor calls fn until d has elapsed (at least once) and returns the
// number of calls and the time they took.
func repeatFor(d time.Duration, fn func() error) (int, time.Duration, error) {
	start := time.Now()
	n := 0
	for {
		if err := fn(); err != nil {
			return n, time.Since(start), err
		}
		n++
		if el := time.Since(start); el >= d {
			return n, el, nil
		}
	}
}

// replayRead streams splits through the workload's RecordReader with a
// counting emit and returns cells read per second.
func replayRead(reader mapreduce.RecordReader, splits []mapreduce.InputSplit) (float64, error) {
	var cells int64
	emit := func(coords.Coord, float64) error { cells++; return nil }
	start := time.Now()
	for _, s := range splits {
		if err := reader.ReadSplit(s.Slab, emit); err != nil {
			return 0, fmt.Errorf("read replay: %w", err)
		}
	}
	return float64(cells) / time.Since(start).Seconds(), nil
}

// mapInput mirrors the MapInput a cluster worker builds for the plan.
func mapInput(plan *core.Plan, reader mapreduce.RecordReader) (mapreduce.MapInput, error) {
	op, err := plan.Query.Op()
	if err != nil {
		return mapreduce.MapInput{}, err
	}
	return mapreduce.MapInput{Query: plan.Query, Op: op, Space: plan.Space, Part: plan.Part, Reader: reader, Combine: true}, nil
}

// replayShuffle replays the Map output path of the plan: ExecMap on the
// splits one keyblock depends on (the keyblock with the largest I_ℓ),
// v3 encode and decode of their spills, the reduce-side k-way merge of
// that keyblock, and pack-store Begin/Append/Commit. It sets the kv.* and
// spillstore.commit_s.p50 metrics and returns the mean committed pack size
// of the replayed splits and their Map output pairs per source record.
func replayShuffle(plan *core.Plan, reader mapreduce.RecordReader, dir string, rep *report) (packBytesPerSplit, pairsPerRecord float64, err error) {
	in, err := mapInput(plan, reader)
	if err != nil {
		return 0, 0, err
	}
	rank := plan.Space.Shape.Rank()
	kb := 0
	for l, deps := range plan.Graph.KBToSplits {
		if len(deps) > len(plan.Graph.KBToSplits[kb]) {
			kb = l
		}
	}
	splits := plan.Graph.KBToSplits[kb]
	if len(splits) == 0 {
		return 0, 0, fmt.Errorf("replay: keyblock %d has no splits", kb)
	}
	outs := make([][]mapreduce.MapOut, len(splits))
	var records, mapPairs int64
	for i, s := range splits {
		o, n, err := mapreduce.ExecMap(in, plan.Splits[s])
		if err != nil {
			return 0, 0, fmt.Errorf("replay map: %w", err)
		}
		outs[i], records = o, records+n
		for _, kbOut := range o {
			mapPairs += int64(len(kbOut.Pairs))
		}
	}

	// Encode every keyblock spill of the replayed splits.
	encodeAll := func(w func(s, l int) io.Writer) error {
		for i, s := range splits {
			for _, l := range plan.Graph.SplitToKB[s] {
				o := outs[i][l]
				if err := kv.WriteSpillV3(w(i, l), rank, o.SourceCount, o.Pairs, kv.V3Options{}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var encoded int64
	spills := map[[2]int]*bytes.Buffer{}
	if err := encodeAll(func(i, l int) io.Writer {
		b := &bytes.Buffer{}
		spills[[2]int{i, l}] = b
		return b
	}); err != nil {
		return 0, 0, err
	}
	for _, b := range spills {
		encoded += int64(b.Len())
	}
	n, el, err := repeatFor(replayMin, func() error { return encodeAll(func(int, int) io.Writer { return io.Discard }) })
	if err != nil {
		return 0, 0, err
	}
	rep.metrics["kv.encode_mb_per_s"] = float64(encoded) * float64(n) / el.Seconds() / (1 << 20)
	rep.metrics["kv.spill_bytes_per_cell"] = ratio(float64(encoded), float64(records))

	before := readMem()
	n, el, err = repeatFor(replayMin, func() error {
		for _, b := range spills {
			if _, _, err := kv.ReadSpill(bytes.NewReader(b.Bytes())); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("replay decode: %w", err)
	}
	after := readMem()
	rep.metrics["kv.decode_mb_per_s"] = float64(encoded) * float64(n) / el.Seconds() / (1 << 20)
	rep.metrics["kv.decode_alloc_bytes_per_byte"] = float64(after.alloc-before.alloc) / (float64(encoded) * float64(n))

	streams := make([][]kv.Pair, len(splits))
	var pairs int
	for i := range splits {
		streams[i] = outs[i][kb].Pairs
		pairs += len(streams[i])
	}
	n, el, _ = repeatFor(replayMin, func() error { kv.MergeSorted(streams); return nil })
	rep.metrics["kv.merge_pairs_per_s"] = float64(pairs) * float64(n) / el.Seconds()

	store, err := spillstore.New(dir)
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	var commits []float64
	var packBytes int64
	attempt := 0
	_, _, err = repeatFor(replayMin, func() error {
		for i, s := range splits {
			pw, err := store.Begin("replay", s, attempt)
			if err != nil {
				return err
			}
			for _, l := range plan.Graph.SplitToKB[s] {
				o := outs[i][l]
				m, err := pw.Append(l, func(w io.Writer) error {
					return kv.WriteSpillV3(w, rank, o.SourceCount, o.Pairs, kv.V3Options{})
				})
				if err != nil {
					pw.Abort()
					return err
				}
				if attempt == 0 {
					packBytes += m
				}
			}
			start := time.Now()
			if err := pw.Commit(); err != nil {
				return err
			}
			commits = append(commits, secs(time.Since(start)))
		}
		store.ReleaseJob("replay")
		attempt++
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("replay pack store: %w", err)
	}
	rep.metrics["spillstore.commit_s.p50"] = median(commits)
	rep.notes["replay"] = map[string]any{
		"keyblock": kb, "splits": len(splits), "records": records,
		"map_pairs": mapPairs, "spill_bytes": encoded, "merge_pairs": pairs,
	}
	return float64(packBytes) / float64(len(splits)), ratio(float64(mapPairs), float64(records)), nil
}
