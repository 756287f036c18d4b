package store

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"privacy3d/internal/dataset"
)

// searchLengths runs the search over columns that are empty, one row,
// one short of, at and one past one and two bitmap words, and a full
// default segment.
var searchLengths = []int{0, 1, 63, 64, 65, 127, 128, 129, DefaultSegmentSize}

type searchColumn struct {
	name string
	col  []float64
}

// searchColumns returns columns of length n whose sorted orders hold runs
// of duplicates of several lengths and mix ±0, ±Inf and NaN rows. Rows are
// shuffled so the permutation is not the identity.
func searchColumns(n int, rng *rand.Rand) []searchColumn {
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	gen := []struct {
		name string
		f    func(i int) float64
	}{
		{"distinct", func(i int) float64 { return float64(i) }},
		// Runs of 64 starting mid-word, and runs of 37 and 100 that
		// drift across the halving steps of a search.
		{"runs64", func(i int) float64 { return float64((i + 32) / 64) }},
		{"runs37", func(i int) float64 { return float64(i / 37) }},
		{"runs100", func(i int) float64 { return float64(i/100) - 3 }},
		{"one", func(int) float64 { return 7 }},
		{"zeros", func(i int) float64 { return []float64{negZero, 0}[i%2] }},
		{"special", func(i int) float64 {
			if i%11 < 5 {
				return []float64{-inf, inf, nan, negZero, 0}[i%11]
			}
			return float64(i%29) - 14
		}},
		{"infs", func(i int) float64 { return []float64{-inf, inf, inf}[i%3] }},
		{"nanHeavy", func(i int) float64 {
			if i%4 != 0 {
				return nan
			}
			return float64(i / 130)
		}},
		{"allNaN", func(int) float64 { return nan }},
	}
	out := make([]searchColumn, len(gen))
	for k, g := range gen {
		col := make([]float64, n)
		for i, r := range rng.Perm(n) {
			col[r] = g.f(i)
		}
		out[k] = searchColumn{g.name, col}
	}
	return out
}

// boundValues lists the search keys for a column: ±0, ±Inf, huge finite
// values, and distinct values with a midpoint to the next one — all of
// them on short dictionaries, a sample of about 60 on long ones.
func boundValues(c *dictCol[float64]) []float64 {
	vals := slices.Clone(c.dict[:c.nanFrom])
	vals = slices.CompactFunc(vals, func(a, b float64) bool { return a == b }) // −0 and +0 are one value
	keep := func(i int) bool { return true }
	if len(vals) > 200 {
		keep = func(i int) bool { return i%(len(vals)/30) == 0 || i%(len(vals)/30) == 1 }
	}
	keys := []float64{math.Inf(-1), math.Copysign(0, -1), 0, math.Inf(1), -1e300, 1e300}
	for i, v := range vals {
		if !keep(i) {
			continue
		}
		keys = append(keys, v)
		if i+1 < len(vals) && !math.IsInf(v, 0) && !math.IsInf(vals[i+1], 0) {
			keys = append(keys, (v+vals[i+1])/2)
		}
	}
	return keys
}

// passes is the reference predicate of one interval bound form.
func passes(x float64, iv numInterval) bool {
	lo := x > iv.lo || iv.loIncl && x == iv.lo
	hi := x < iv.hi || iv.hiIncl && x == iv.hi
	return lo && hi
}

// checkSpan compares a resolved span with the linear reference: the rows
// for which match holds.
func checkSpan(t *testing.T, what string, sp span, n int, match func(r int) bool) {
	t.Helper()
	want := 0
	for r := 0; r < n; r++ {
		if match(r) {
			want++
		}
	}
	if sp.k != want {
		t.Fatalf("%s: span matches %d rows, linear reference %d", what, sp.k, want)
	}
	if sp.k == n || sp.k == 0 {
		return // eval fills or skips the window without reading the span
	}
	rows := [][]uint16{sp.perm[sp.lo:sp.hi]}
	if sp.out {
		rows = [][]uint16{sp.perm[:sp.lo], sp.perm[sp.hi:]}
	}
	got := make([]bool, n)
	for _, rs := range rows {
		for _, r := range rs {
			got[r] = true
		}
	}
	for r := 0; r < n; r++ {
		if got[r] != match(r) {
			t.Fatalf("%s: row %d in span = %v, linear reference %v", what, r, got[r], match(r))
		}
	}
}

// TestPermSearchMatchesLinear checks the dictionary search and every
// span resolved through it into the permutation against a linear sweep:
// search positions for every key and both strictnesses, intervals in
// every inclusive/exclusive form (one- and two-sided, with ±Inf ends),
// numeric != (NaN included), and categorical = and != on present and
// absent codes.
func TestPermSearchMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inf := math.Inf(1)
	for _, n := range searchLengths {
		for _, fc := range searchColumns(n, rng) {
			name, col := fc.name, fc.col
			codes := make([]uint32, n)
			for i := range codes {
				codes[i] = 2 * uint32(rng.Intn(5)) // odd codes are absent
			}
			d := buildSegData([][]float64{col, nil}, [][]uint32{nil, codes})
			c := &d.nums[0]
			vals := c.dict[:c.nanFrom]
			keys := boundValues(c)
			for _, v := range keys {
				for _, strict := range []bool{false, true} {
					want := 0
					for _, x := range vals {
						if x < v || strict && x == v {
							want++
						}
					}
					if got := searchDict(vals, v, strict); got != want {
						t.Fatalf("n=%d %s: search(%v, strict=%v) = %d, linear %d", n, name, v, strict, got, want)
					}
				}
			}
			checkIv := func(iv numInterval) {
				checkSpan(t, name, c.span(iv.lo, !iv.loIncl, iv.hi, !iv.hiIncl), n, func(r int) bool { return passes(col[r], iv) })
			}
			for i, v := range keys {
				for _, incl := range []bool{false, true} {
					checkIv(numInterval{lo: v, loIncl: incl, hi: inf, hiIncl: true})
					checkIv(numInterval{lo: -inf, loIncl: true, hi: v, hiIncl: incl})
				}
				lo, hi := v, keys[(i*7+3)%len(keys)]
				if hi < lo {
					lo, hi = hi, lo
				}
				for form := 0; form < 4; form++ {
					iv := numInterval{lo: lo, loIncl: form&1 != 0, hi: hi, hiIncl: form&2 != 0}
					if !iv.vacuous() {
						checkIv(iv)
					}
				}
			}
			for _, v := range append(keys, math.NaN()) {
				ne := compiledCond{numeric: true, col: 0, op: Ne, v: v}
				checkSpan(t, name+" !=", d.equalSpan(ne), n, func(r int) bool { return col[r] != v })
			}
			for code := uint32(0); code <= 11; code++ {
				for _, op := range []Op{Eq, Ne} {
					c := compiledCond{col: 1, op: op, code: code, codeOK: true}
					checkSpan(t, name+" code", d.equalSpan(c), n, func(r int) bool { return (codes[r] == code) == (op == Eq) })
				}
			}
		}
	}
}

// heldBytes sums len × element size over every slice reachable from v, so
// it counts exactly what a segData holds, whatever fields it grows.
func heldBytes(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return heldBytes(v.Elem())
	case reflect.Struct:
		var b int64
		for i := 0; i < v.NumField(); i++ {
			b += heldBytes(v.Field(i))
		}
		return b
	case reflect.Slice:
		if k := v.Type().Elem().Kind(); k != reflect.Slice && k != reflect.Struct {
			return int64(v.Len()) * int64(v.Type().Elem().Size())
		}
		var b int64
		for i := 0; i < v.Len(); i++ {
			b += heldBytes(v.Index(i))
		}
		return b
	}
	return 0
}

// TestFootprintCountsHeldSlices pins footprint to the bytes the segment
// holds, on the NaN-bearing side-choice fixture and on a trial segment,
// which must take at most 29 bytes per row: 6 columns of a 2-byte code
// and a 2-byte permutation entry per row (24 bytes), plus dictionaries of
// a few hundred 8-byte values per numeric column at the trial data's 0.1
// precision (about 4 bytes per row of an 8192-row segment).
func TestFootprintCountsHeldSlices(t *testing.T) {
	_, side := sideStore(t)
	for i, sg := range side.segs {
		d := sg.mustAcquire()
		if got, want := d.footprint(), heldBytes(reflect.ValueOf(d)); got != want {
			t.Errorf("side segment %d: footprint %d, holds %d bytes", i, got, want)
		}
		if sg.bytes != d.footprint() {
			t.Errorf("side segment %d: handle accounts %d bytes, footprint %d", i, sg.bytes, d.footprint())
		}
	}
	rows, err := dataset.Synth("trial", DefaultSegmentSize, 20070923)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromDataset(rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Snapshot().segs
	if len(segs) != 1 {
		t.Fatalf("trial store sealed %d segments, want 1", len(segs))
	}
	d := segs[0].mustAcquire()
	if got, want := d.footprint(), heldBytes(reflect.ValueOf(d)); got != want {
		t.Errorf("trial segment: footprint %d, holds %d bytes", got, want)
	}
	if perRow := float64(d.footprint()) / float64(d.n); perRow > 29 {
		t.Errorf("trial segment takes %.2f B/row, want <= 29", perRow)
	}
}
