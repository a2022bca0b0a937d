package main

import (
	"fmt"
	"math"
	"sync/atomic"
)

// table is a query result as sorted rows: keys and per-key values.
type table struct {
	Keys   [][]int64
	Values [][]float64
}

// oracle holds the reference results, computed once per distinct query by
// the in-process engine outside any timed phase, and compares results to
// them bit for bit (Float64bits), so a changed rounding is a failure too.
type oracle struct {
	refs map[string]table
	flip atomic.Bool // test hook: corrupt the next checked result
}

func newOracle(flip bool) *oracle {
	o := &oracle{refs: map[string]table{}}
	o.flip.Store(flip)
	return o
}

func (o *oracle) set(key string, t table) { o.refs[key] = t }

// check compares got with the reference for key. The returned error names
// the first difference.
func (o *oracle) check(key string, got table) error {
	want, ok := o.refs[key]
	if !ok {
		return fmt.Errorf("no reference for %q", key)
	}
	if o.flip.CompareAndSwap(true, false) {
		got = flipped(got)
	}
	return sameTable(want, got)
}

// flipped copies t with the lowest bit of its first value inverted.
func flipped(t table) table {
	out := table{Keys: t.Keys, Values: make([][]float64, len(t.Values))}
	copy(out.Values, t.Values)
	for i, vs := range out.Values {
		if len(vs) > 0 {
			c := append([]float64(nil), vs...)
			c[0] = math.Float64frombits(math.Float64bits(c[0]) ^ 1)
			out.Values[i] = c
			break
		}
	}
	return out
}

func sameTable(want, got table) error {
	if len(want.Keys) != len(got.Keys) || len(want.Values) != len(got.Values) {
		return fmt.Errorf("%d rows, want %d", len(got.Keys), len(want.Keys))
	}
	for i := range want.Keys {
		if !sameInts(want.Keys[i], got.Keys[i]) {
			return fmt.Errorf("row %d key %v, want %v", i, got.Keys[i], want.Keys[i])
		}
		if len(want.Values[i]) != len(got.Values[i]) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(got.Values[i]), len(want.Values[i]))
		}
		for j, w := range want.Values[i] {
			if math.Float64bits(w) != math.Float64bits(got.Values[i][j]) {
				return fmt.Errorf("row %d key %v value %d is %v, want %v", i, want.Keys[i], j, got.Values[i][j], w)
			}
		}
	}
	return nil
}

func sameInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
