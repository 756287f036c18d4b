// Package microagg implements microaggregation-based masking: MDAV
// multivariate microaggregation (Domingo-Ferrer & Mateo-Sanz 2002,
// Domingo-Ferrer & Torra 2005), optimal univariate microaggregation via
// shortest-path dynamic programming (Hansen & Mukherjee), condensation
// (Aggarwal & Yu 2004) and categorical microaggregation. Microaggregation
// with minimum group size k over the quasi-identifiers yields k-anonymity
// ([12] in the paper), which is why the paper singles it out as the masking
// family that satisfies respondent and owner privacy simultaneously.
package microagg

import (
	"context"
	"fmt"

	"privacy3d/internal/dataset"
	"privacy3d/internal/par"
	"privacy3d/internal/stats"
)

// validateK checks the group-size parameter against the data size.
func validateK(n, k int) error {
	if k < 2 {
		return fmt.Errorf("microagg: group size k must be ≥ 2, got %d", k)
	}
	if n < k {
		return fmt.Errorf("microagg: dataset has %d records, need at least k=%d", n, k)
	}
	return nil
}

// MDAVGroups partitions the rows of a numeric matrix into groups of size k
// (the final group may hold up to 2k-1 records) using the Maximum Distance
// to Average Vector heuristic. Data is used as given; callers who want
// scale-invariant groups should standardise first (see Mask).
func MDAVGroups(data [][]float64, k int) ([][]int, error) {
	return MDAVGroupsFlat(stats.FlatFromRows(data), k)
}

// MDAVGroupsFlat is MDAVGroups over a flat row-major matrix — the native
// form of the engine.
func MDAVGroupsFlat(f *stats.Flat, k int) ([][]int, error) {
	return MDAVGroupsFlatCtx(context.Background(), f, k)
}

// MDAVGroupsFlatCtx partitions the rows of a flat row-major matrix with the
// MDAV heuristic. Its centroid, farthest-record and nearest-k scans run
// chunked on the internal/par pool; chunk partials merge in fixed chunk
// order, so the partition is identical for every worker count. Cancelling
// ctx stops the run at the next chunk boundary and returns ctx.Err().
func MDAVGroupsFlatCtx(ctx context.Context, f *stats.Flat, k int) ([][]int, error) {
	if err := validateK(f.Rows(), k); err != nil {
		return nil, err
	}
	pool := par.Default()
	remaining := make([]int, f.Rows())
	for i := range remaining {
		remaining[i] = i
	}
	// One distance and selection scratch for every takeNearest call in the
	// run, and one membership array for the O(1) was-s-consumed-into-g1
	// check.
	scratch := &nearScratch{dist: make([]float64, f.Rows()), heap: make([]cand, 0, k)}
	inG1 := make([]bool, f.Rows())
	var groups [][]int
	for len(remaining) >= 3*k {
		centroid, err := centroidFlat(ctx, pool, f, remaining)
		if err != nil {
			return nil, err
		}
		// r: most distant record from the centroid.
		r, err := farthestFlat(ctx, pool, f, remaining, centroid)
		if err != nil {
			return nil, err
		}
		// s: most distant record from r.
		s, err := farthestFlat(ctx, pool, f, remaining, f.Row(r))
		if err != nil {
			return nil, err
		}
		g1, rest, err := takeNearestFlat(ctx, pool, f, remaining, f.Row(r), k, r, scratch)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g1)
		// s may have been consumed into g1; if so pick the farthest
		// remaining record from the old centroid instead. g1 plus rest
		// partition remaining, so membership in g1 answers "is s gone".
		for _, i := range g1 {
			inG1[i] = true
		}
		sIdx, consumed := s, inG1[s]
		for _, i := range g1 {
			inG1[i] = false
		}
		if consumed {
			if len(rest) == 0 {
				break
			}
			sIdx, err = farthestFlat(ctx, pool, f, rest, centroid)
			if err != nil {
				return nil, err
			}
		}
		g2, rest2, err := takeNearestFlat(ctx, pool, f, rest, f.Row(sIdx), k, sIdx, scratch)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g2)
		remaining = rest2
	}
	if len(remaining) >= 2*k {
		centroid, err := centroidFlat(ctx, pool, f, remaining)
		if err != nil {
			return nil, err
		}
		r, err := farthestFlat(ctx, pool, f, remaining, centroid)
		if err != nil {
			return nil, err
		}
		g1, rest, err := takeNearestFlat(ctx, pool, f, remaining, f.Row(r), k, r, scratch)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g1)
		remaining = rest
	}
	if len(remaining) > 0 {
		groups = append(groups, append([]int(nil), remaining...))
	}
	return groups, nil
}

// centroidFlat averages the given rows. Chunk partial sums fold in chunk
// order, keeping the result worker-count independent.
func centroidFlat(ctx context.Context, pool *par.Pool, f *stats.Flat, rows []int) ([]float64, error) {
	p := f.Cols()
	parts, err := par.MapChunksCtx(ctx, pool, len(rows), func(lo, hi int) []float64 {
		sum := make([]float64, p)
		for _, i := range rows[lo:hi] {
			row := f.Row(i)
			for j, v := range row {
				sum[j] += v
			}
		}
		return sum
	})
	if err != nil {
		return nil, err
	}
	c := make([]float64, p)
	for _, part := range parts {
		for j, v := range part {
			c[j] += v
		}
	}
	for j := range c {
		c[j] /= float64(len(rows))
	}
	return c, nil
}

// argMax is one chunk's farthest-record scan result.
type argMax struct {
	idx int
	d   float64
}

// farthestFlat returns the row index most distant from the query point,
// first index winning ties — exactly the sequential scan's answer, because
// chunk partials are compared strictly-greater in chunk order.
func farthestFlat(ctx context.Context, pool *par.Pool, f *stats.Flat, rows []int, from []float64) (int, error) {
	parts, err := par.MapChunksCtx(ctx, pool, len(rows), func(lo, hi int) argMax {
		best := argMax{idx: rows[lo], d: -1}
		for _, i := range rows[lo:hi] {
			if d := stats.SquaredDist(f.Row(i), from); d > best.d {
				best = argMax{idx: i, d: d}
			}
		}
		return best
	})
	if err != nil {
		return 0, err
	}
	best := argMax{idx: rows[0], d: -1}
	for _, part := range parts {
		if part.d > best.d {
			best = part
		}
	}
	return best.idx, nil
}

type cand struct {
	idx int
	d   float64
}

// candLess orders candidates by distance, then by index. A NaN distance
// sorts after every number, NaNs among themselves by index, so the order
// is total on any input.
func candLess(a, b cand) bool {
	if an, bn := a.d != a.d, b.d != b.d; an || bn {
		if an != bn {
			return bn
		}
		return a.idx < b.idx
	}
	if a.d != b.d {
		return a.d < b.d
	}
	return a.idx < b.idx
}

// nearScratch is takeNearestFlat's reusable scratch: one distance per row
// and the k-candidate selection heap.
type nearScratch struct {
	dist []float64
	heap []cand
}

// takeNearestFlat removes the k records nearest to center (anchor first if
// provided) from rows, which must be ascending, returning the group and
// the remaining rows, both ascending. The distance fill runs in parallel
// into the caller's scratch; a max-heap of k candidates then selects the
// k smallest (distance, index) pairs under candLess — distance ties break
// by index, so the split is deterministic — and one ordered pass over
// rows splits them, so neither side needs a sort.
func takeNearestFlat(ctx context.Context, pool *par.Pool, f *stats.Flat, rows []int, center []float64, k, anchor int, scratch *nearScratch) (group, rest []int, err error) {
	dist := scratch.dist[:len(rows)]
	if err := pool.ForEachChunkCtx(ctx, len(rows), func(lo, hi int) {
		for t := lo; t < hi; t++ {
			i := rows[t]
			d := stats.SquaredDist(f.Row(i), center)
			if i == anchor {
				d = -1 // anchor always first
			}
			dist[t] = d
		}
	}); err != nil {
		return nil, nil, err
	}
	h := scratch.heap[:0]
	for t, i := range rows {
		c := cand{i, dist[t]}
		if len(h) < k {
			h = append(h, c)
			siftUp(h, len(h)-1)
		} else if candLess(c, h[0]) {
			h[0] = c
			siftDown(h, 0)
		}
	}
	// Exactly k candidates are at or before the heap's top, the k-th
	// nearest: candLess is total and no two rows share an index.
	kth := h[0]
	group = make([]int, 0, k)
	rest = make([]int, 0, len(rows)-k)
	for t, i := range rows {
		if candLess(kth, cand{i, dist[t]}) {
			rest = append(rest, i)
		} else {
			group = append(group, i)
		}
	}
	return group, rest, nil
}

// siftUp restores the max-heap order (under candLess) of h after h[j]
// was appended.
func siftUp(h []cand, j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !candLess(h[p], h[j]) {
			return
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
}

// siftDown restores the max-heap order of h after h[j] was replaced.
func siftDown(h []cand, j int) {
	for {
		big := j
		if l := 2*j + 1; l < len(h) && candLess(h[big], h[l]) {
			big = l
		}
		if r := 2*j + 2; r < len(h) && candLess(h[big], h[r]) {
			big = r
		}
		if big == j {
			return
		}
		h[j], h[big] = h[big], h[j]
		j = big
	}
}

// Result describes a microaggregation masking run.
type Result struct {
	// Groups holds the record partition used for aggregation.
	Groups [][]int
	// SSE is the within-group sum of squared errors in the (standardised,
	// if requested) masking space — the information-loss objective
	// microaggregation minimises.
	SSE float64
	// SST is the total sum of squares in the same space; IL = SSE/SST is
	// the normalised information-loss measure reported in the
	// microaggregation literature.
	SST float64
}

// IL returns the normalised information loss SSE/SST in [0,1].
func (r Result) IL() float64 {
	if r.SST == 0 {
		return 0
	}
	return r.SSE / r.SST
}

// Options configures Mask.
type Options struct {
	// K is the minimum group size (k ≥ 2).
	K int
	// Columns to microaggregate; defaults to the dataset's
	// quasi-identifiers.
	Columns []int
	// Standardize groups on z-scores so attributes with large scales do
	// not dominate distances (the standard practice). Default true via
	// NewOptions.
	Standardize bool
}

// NewOptions returns Options with the conventional defaults.
func NewOptions(k int) Options { return Options{K: k, Standardize: true} }

// Mask microaggregates the selected numeric columns of d in place on a
// clone: every record's values are replaced by its group centroid. Because
// every group has ≥ k records, the masked columns are k-anonymous.
func Mask(d *dataset.Dataset, opt Options) (*dataset.Dataset, Result, error) {
	return MaskCtx(context.Background(), d, opt)
}

// MaskCtx is Mask with cooperative cancellation: the MDAV grouping scans
// stop at the next chunk boundary once ctx is done and ctx.Err() is
// returned.
func MaskCtx(ctx context.Context, d *dataset.Dataset, opt Options) (*dataset.Dataset, Result, error) {
	cols := opt.Columns
	if cols == nil {
		cols = d.QuasiIdentifiers()
	}
	if len(cols) == 0 {
		return nil, Result{}, fmt.Errorf("microagg: no columns to mask")
	}
	raw := d.NumericMatrix(cols)
	space := raw
	if opt.Standardize {
		space, _, _ = stats.Standardize(raw)
	}
	groups, err := MDAVGroupsFlatCtx(ctx, stats.FlatFromRows(space), opt.K)
	if err != nil {
		return nil, Result{}, err
	}
	return aggregate(d, cols, raw, space, groups)
}

// aggregate replaces each record's masked-column values with its group
// centroid (in the original space) and computes SSE/SST in the masking
// space.
func aggregate(d *dataset.Dataset, cols []int, raw, space [][]float64, groups [][]int) (*dataset.Dataset, Result, error) {
	out := d.Clone()
	res := Result{Groups: groups}
	grand := centroidOf(space, allRows(len(space)))
	for _, i := range allRows(len(space)) {
		res.SST += stats.SquaredDist(space[i], grand)
	}
	for _, g := range groups {
		cRaw := centroidOf(raw, g)
		cSpace := centroidOf(space, g)
		for _, i := range g {
			res.SSE += stats.SquaredDist(space[i], cSpace)
			for kk, j := range cols {
				out.SetFloat(i, j, cRaw[kk])
			}
		}
	}
	return out, res, nil
}

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// GroupSizesValid reports whether every group has between k and 2k-1
// members — the defining invariant of fixed-size microaggregation
// heuristics (the last group may reach 2k-1).
func GroupSizesValid(groups [][]int, k int) bool {
	for _, g := range groups {
		if len(g) < k || len(g) > 2*k-1 {
			return false
		}
	}
	return true
}
