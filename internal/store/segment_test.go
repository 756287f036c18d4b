package store

import (
	"math"
	"testing"

	"privacy3d/internal/dataset"
)

const sideSegSize = 64

// buildSegData dictionary-codes one block of columns with a fresh builder,
// as a store's seal does with its own (Store.dicts).
func buildSegData(nums [][]float64, cats [][]uint32) *segData {
	return newDictBuilder().build(nums, cats)
}

// sideStore builds seven sealed 64-row segments plus a 20-row tail whose
// values put the kernel's side choice on every edge: match counts of
// n/2−1, n/2 and n/2+1, NaN-heavy, NaN-majority and all-NaN segments,
// ±0 and ±Inf values, duplicates, a single-valued segment, and a
// categorical column whose majority code changes between segments.
func sideStore(t *testing.T) (*dataset.Dataset, *Snapshot) {
	t.Helper()
	d := dataset.New(
		dataset.Attribute{Name: "x", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "w", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "y", Role: dataset.Confidential, Kind: dataset.Numeric},
		dataset.Attribute{Name: "c", Role: dataset.QuasiIdentifier, Kind: dataset.Nominal},
	)
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for i := 0; i < 7*sideSegSize+20; i++ {
		seg, r := i/sideSegSize, i%sideSegSize
		x := float64(r)
		switch seg {
		case 1: // NaN-heavy
			if r%4 == 1 {
				x = nan
			}
		case 2: // all NaN
			x = nan
		case 3: // ±Inf, −0 and +0, NaN
			x = float64(r - 32)
			switch {
			case r == 0:
				x = math.Inf(-1)
			case r == 1:
				x = math.Inf(1)
			case r%2 == 0 && r < 12:
				x = negZero
			case r%8 == 5:
				x = nan
			}
		case 4: // NaN-majority
			if r < 40 {
				x = nan
			}
		case 5: // every value twice
			x = float64(r / 2)
		case 6: // one value
			x = 5
		}
		// w = 0 and c = "a" hold on exactly 31, 32 and 33 rows of the first
		// three segments, so = and != hit n/2−1, n/2 and n/2+1 on both sides.
		w, c := float64(r%5), []string{"a", "a", "a", "b"}[r%4]
		switch {
		case seg < 3:
			w, c = float64(r), []string{"b", "c"}[r%2]
			if r < 31+seg {
				w, c = 0, "a"
			}
		case seg == 3:
			w, c = 0, "a"
			if r%3 == 0 {
				w = nan
			}
		case seg == 4:
			c = "b"
			if r < 14 {
				c = "a"
			}
		}
		d.MustAppend(x, w, math.Sin(float64(i))*100, c)
	}
	s, err := FromDataset(d, sideSegSize)
	if err != nil {
		t.Fatal(err)
	}
	return d, s.Snapshot()
}

// sideConds lists single conditions on both sides of every edge above.
func sideConds() []Cond {
	vals := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 5, 15.5, 30, 31, 32, 33, 34, 63, math.Inf(1), math.NaN()}
	var out []Cond
	for _, col := range []string{"x", "w"} {
		for op := Lt; op <= Ne; op++ {
			for _, v := range vals {
				out = append(out, Cond{Col: col, Op: op, V: v})
			}
		}
	}
	for _, s := range []string{"a", "b", "c", "zz"} {
		out = append(out, Cond{Col: "c", Op: Eq, S: s, Str: true}, Cond{Col: "c", Op: Ne, S: s, Str: true})
	}
	return out
}

// TestEvalSideChoice checks the cheaper-side kernel bit for bit: for every
// single condition, a fifth of all pairs and a spread of triples mixing
// inside and outside sides, Eval ≡ EvalScan ≡ bruteEval, EvalBatch ≡ Eval, and Sum over
// the indexed bitmap has the same bits as the sequential reference sum.
func TestEvalSideChoice(t *testing.T) {
	d, snap := sideStore(t)
	ycol := snap.Index("y")

	// The fixture must really put the boundary counts in one segment each.
	for _, tc := range []struct {
		cond Cond
		want [3]int
	}{
		{Cond{Col: "c", Op: Eq, S: "a", Str: true}, [3]int{31, 32, 33}},
		{Cond{Col: "w", Op: Ne, V: 0}, [3]int{33, 32, 31}},
		{Cond{Col: "x", Op: Lt, V: 31}, [3]int{31, 23, 0}},
	} {
		bm, err := snap.Eval([]Cond{tc.cond})
		if err != nil {
			t.Fatal(err)
		}
		for seg, want := range tc.want {
			if got := countWords(bm.Words()[seg : seg+1]); got != want {
				t.Fatalf("%v matches %d rows of segment %d, want %d", tc.cond, got, seg, want)
			}
		}
	}

	singles := sideConds()
	var cases [][]Cond
	for i, a := range singles {
		cases = append(cases, []Cond{a})
		for j := i % 5; j < len(singles); j += 5 {
			cases = append(cases, []Cond{a, singles[j]})
		}
	}
	for i := 0; i < len(singles); i += 11 {
		for j := 3; j < len(singles); j += 13 {
			for k := 5; k < len(singles); k += 17 {
				cases = append(cases, []Cond{singles[i], singles[j], singles[k]})
			}
		}
	}

	idxs := make([]*Bitmap, len(cases))
	for n, conds := range cases {
		want := bruteEval(d, conds)
		idx, err := snap.Eval(conds)
		if err != nil {
			t.Fatalf("Eval(%v): %v", conds, err)
		}
		scan, err := snap.EvalScan(conds)
		if err != nil {
			t.Fatalf("EvalScan(%v): %v", conds, err)
		}
		var refSum float64
		for i, w := range want {
			if idx.Get(i) != w || scan.Get(i) != w {
				t.Fatalf("%v row %d: Eval %v, EvalScan %v, want %v", conds, i, idx.Get(i), scan.Get(i), w)
			}
			if w {
				refSum += d.Float(i, ycol)
			}
		}
		if got := snap.Sum(idx, ycol); math.Float64bits(got) != math.Float64bits(refSum) {
			t.Fatalf("Sum(%v) = %x, want %x", conds, math.Float64bits(got), math.Float64bits(refSum))
		}
		idxs[n] = idx
	}

	const width = 64
	for lo := 0; lo < len(cases); lo += width {
		hi := min(lo+width, len(cases))
		batch, err := snap.EvalBatch(cases[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		for k, bm := range batch {
			for w, v := range bm.Words() {
				if v != idxs[lo+k].Words()[w] {
					t.Fatalf("EvalBatch(%v) word %d = %x, Eval gives %x", cases[lo+k], w, v, idxs[lo+k].Words()[w])
				}
			}
		}
	}
}
