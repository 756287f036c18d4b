package microagg

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"privacy3d/internal/par"
	"privacy3d/internal/stats"
)

// takeNearestSorted is the sort-based nearest-k split takeNearestFlat
// replaced: sort every candidate by less, take the first k, and sort both
// sides.
func takeNearestSorted(f *stats.Flat, rows []int, center []float64, k, anchor int, less func(a, b cand) bool) (group, rest []int) {
	cands := make([]cand, len(rows))
	for t, i := range rows {
		d := stats.SquaredDist(f.Row(i), center)
		if i == anchor {
			d = -1
		}
		cands[t] = cand{i, d}
	}
	sort.Slice(cands, func(a, b int) bool { return less(cands[a], cands[b]) })
	for _, c := range cands[:k] {
		group = append(group, c.idx)
	}
	rest = []int{}
	for _, c := range cands[k:] {
		rest = append(rest, c.idx)
	}
	sort.Ints(group)
	sort.Ints(rest)
	return group, rest
}

// sortComparator is the comparator of the sort takeNearestFlat replaced;
// it is a strict weak order only on NaN-free distances.
func sortComparator(a, b cand) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.idx < b.idx
}

// tiedFlat returns n rows of cols coordinates drawn from {0, 1, 2}, so
// most distances to any center are tied; each coordinate is NaN with
// probability nanRate.
func tiedFlat(rng *rand.Rand, n, cols int, nanRate float64) *stats.Flat {
	f := stats.NewFlat(n, cols)
	for i := 0; i < n; i++ {
		row := f.Row(i)
		for j := range row {
			row[j] = float64(rng.Intn(3))
			if rng.Float64() < nanRate {
				row[j] = math.NaN()
			}
		}
	}
	return f
}

// ascendingSubset returns a random ascending subset of [0, n) with at
// least atLeast members.
func ascendingSubset(rng *rand.Rand, n, atLeast int) []int {
	for {
		var rows []int
		keep := 0.3 + 0.7*rng.Float64()
		for i := 0; i < n; i++ {
			if rng.Float64() < keep {
				rows = append(rows, i)
			}
		}
		if len(rows) >= atLeast {
			return rows
		}
	}
}

// TestTakeNearestMatchesSort checks the selection against the sort it
// replaced on inputs with heavy distance ties: on NaN-free data the group
// and the rest are identical to the sort's under its own comparator, and
// with NaN distances identical to a sort under candLess, which puts every
// NaN after every number and orders the NaNs by index.
func TestTakeNearestMatchesSort(t *testing.T) {
	pool := par.Default()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		nanRate, less := 0.0, sortComparator
		if trial%2 == 1 {
			nanRate, less = 0.2, candLess
		}
		n := 2 + rng.Intn(120)
		f := tiedFlat(rng, n, 1+rng.Intn(3), nanRate)
		rows := ascendingSubset(rng, n, 2)
		k := 1 + rng.Intn(len(rows))
		center := f.Row(rows[rng.Intn(len(rows))])
		anchor := -1
		if rng.Intn(2) == 0 {
			anchor = rows[rng.Intn(len(rows))]
		}
		scratch := &nearScratch{dist: make([]float64, n)}
		group, rest, err := takeNearestFlat(context.Background(), pool, f, rows, center, k, anchor, scratch)
		if err != nil {
			t.Fatal(err)
		}
		wantGroup, wantRest := takeNearestSorted(f, rows, center, k, anchor, less)
		if !reflect.DeepEqual(group, wantGroup) || !reflect.DeepEqual(rest, wantRest) {
			t.Fatalf("trial %d (n=%d, k=%d, anchor=%d, NaN rate %g): selection split\n%v | %v\nsort split\n%v | %v",
				trial, n, k, anchor, nanRate, group, rest, wantGroup, wantRest)
		}
		if anchor >= 0 && !slices.Contains(group, anchor) {
			t.Fatalf("trial %d: anchor %d not in the group %v", trial, anchor, group)
		}
	}
}

// TestTakeNearestNaNLast pins the NaN order on a hand-built case: with
// two numeric distances and k = 3, the group takes both numbers and the
// lowest-indexed NaN row.
func TestTakeNearestNaNLast(t *testing.T) {
	nan := math.NaN()
	f := stats.FlatFromRows([][]float64{{nan}, {5}, {nan}, {nan}, {1}})
	scratch := &nearScratch{dist: make([]float64, 5)}
	group, rest, err := takeNearestFlat(context.Background(), par.Default(), f, []int{0, 1, 2, 3, 4}, []float64{0}, 3, -1, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 4}; !reflect.DeepEqual(group, want) {
		t.Fatalf("group %v, want %v", group, want)
	}
	if want := []int{2, 3}; !reflect.DeepEqual(rest, want) {
		t.Fatalf("rest %v, want %v", rest, want)
	}
}
