package store

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// A segment is an immutable, fully indexed block of exactly segSize rows.
// The segment value itself is only the handle — global position, row count,
// zone maps and tier state; the decoded columns and indexes live in a
// segData that the handle either holds resident (the in-memory tier) or
// decodes on demand from its SegmentSource (the spilled tier, backed by
// the on-disk segment file). Every reader of columns goes through acquire,
// so the evaluation kernels are tier-blind. Once built, a segment's data
// is never mutated — the immutability that gives snapshots their
// isolation for free.
type segment struct {
	base  int   // global row index of the segment's first row
	n     int   // rows in the segment (== the store's segSize)
	ord   int   // ordinal in the sealed-segment list (names the spill file)
	bytes int64 // decoded footprint of the segData, for the memory cap

	// zones holds one zone map per schema column, filled at seal time and
	// persisted in the manifest, so NumRange answers from the handle
	// without decoding a spilled segment.
	zones []zone

	tier *tierState
	src  SegmentSource // durable backing; nil for memory-only segments

	// data is the resident decoded form. Non-nil means the segment is in
	// the resident tier; nil means it is spilled and acquire decodes it
	// through src. Promotion and eviction flip it with CAS, so a reader
	// that loaded a non-nil pointer keeps a consistent immutable view even
	// if the segment is evicted underneath it.
	data atomic.Pointer[segData]

	// lastUse orders eviction: the tier's use clock at the last acquire.
	lastUse atomic.Int64
}

// zone is one column's zone map: the min and max of its non-NaN values.
// A column with no non-NaN value (every value NaN, or a categorical
// column) has the empty zone {+Inf, -Inf}, so "has any non-NaN value" is
// min <= max and folding zones into a running [lo, hi] needs no special
// case.
type zone struct{ min, max float64 }

var emptyZone = zone{math.Inf(1), math.Inf(-1)}

// identical compares bit patterns, so −0 and +0 bounds differ.
func (z zone) identical(o zone) bool {
	return math.Float64bits(z.min) == math.Float64bits(o.min) && math.Float64bits(z.max) == math.Float64bits(o.max)
}

// zonesOf reads every column's zone map off a decoded segment's indexes.
func zonesOf(d *segData) []zone {
	zs := make([]zone, len(d.nidx))
	for j, idx := range d.nidx {
		zs[j] = emptyZone
		if len(idx.perm) > 0 {
			zs[j] = zone{idx.min, idx.max}
		}
	}
	return zs
}

// SegmentSource is the tier read abstraction: where a sealed segment's
// bytes come from when its decoded form is not resident. The only
// implementation today is the segment file (fileSource), read whole and
// decoded on every load — the resident tier is the spilled tier's only
// cache. The planner, shard scatter-gather and EvalBatch never see the
// difference because they all read columns through segment.acquire.
type SegmentSource interface {
	// Load decodes the segment into its evaluable form. The returned
	// segData is immutable and exactly what buildSegData produced at seal
	// time — byte-identical answers across tiers follow from that.
	Load() (*segData, error)
	// Name identifies the backing (the segment file name) for diagnostics.
	Name() string
}

// ErrUnreadable wraps every failure to read a spilled segment back while
// answering: a file whose bytes no longer match the checksum its manifest
// recorded, a decode error, a read error, or a store closed underneath the
// snapshot. It is a fault of the stored data, never of the query.
var ErrUnreadable = errors.New("store: sealed segment unreadable")

// acquire returns the segment's decoded data. The fast path — resident
// data — is one atomic load. A spilled segment is decoded through load
// (one file read, checksum, column decode) and, when the memory cap has
// room, promoted back into the resident tier so later queries pay nothing.
// Open checks only each segment file's size, so the checksum in load is
// what verifies the bytes; a failed load is returned wrapped in
// ErrUnreadable and leaves the segment spilled, so every later acquire
// reads and verifies the file again.
func (sg *segment) acquire() (*segData, error) {
	if sg.tier != nil {
		sg.lastUse.Store(sg.tier.useClock.Add(1))
	}
	if d := sg.data.Load(); d != nil {
		return d, nil
	}
	d, err := sg.load()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUnreadable, err)
	}
	if sg.tier.admit(sg.bytes) {
		if sg.data.CompareAndSwap(nil, d) {
			sg.tier.noteResident(sg.bytes)
		} else {
			sg.tier.unadmit(sg.bytes)
			d = sg.data.Load() // another reader promoted first; share its copy
		}
	}
	return d, nil
}

// mustAcquire is acquire for the readers whose signatures carry no error
// (Snapshot.Sum, Float, Cat, Materialize). For Sum, Float and Cat a
// query's Eval has already read and verified every segment its answer
// re-reads (with or without conditions), so a failure there means the
// file changed underneath a live store between the two reads. Materialize
// has no Eval before it. Either way it panics, and a serving layer's panic
// recovery answers with an error.
func (sg *segment) mustAcquire() *segData {
	d, err := sg.acquire()
	if err != nil {
		panic(err)
	}
	return d
}

// load decodes the segment from its source and checks the decoded zone
// maps bit-for-bit against the handle's. NumRange answers from the
// handle's zones alone, so a disagreement means the manifest and the
// segment file describe different data: a decode error, so no answer is
// computed from the segment.
func (sg *segment) load() (*segData, error) {
	d, err := sg.src.Load()
	if err != nil {
		return nil, err
	}
	for j, z := range zonesOf(d) {
		if h := sg.zones[j]; !z.identical(h) {
			return nil, fmt.Errorf("store: %s: column %d decodes to zone [%g, %g], manifest says [%g, %g]", sg.src.Name(), j, z.min, z.max, h.min, h.max)
		}
	}
	return d, nil
}

// evict drops the resident decoded form (the segment must be durably
// persisted). Returns false if the segment was already spilled. In-flight
// readers that acquired before the flip keep their immutable segData.
func (sg *segment) evict() bool {
	d := sg.data.Load()
	if d == nil || sg.src == nil {
		return false
	}
	if !sg.data.CompareAndSwap(d, nil) {
		return false
	}
	sg.tier.noteSpilled(sg.bytes)
	return true
}

// resident reports whether the decoded form is currently in memory.
func (sg *segment) resident() bool { return sg.data.Load() != nil }

// segData is the decoded, evaluable form of one sealed segment: contiguous
// columns (numeric as []float64, categorical as dictionary codes) plus the
// per-column indexes. It is immutable after buildSegData and shared freely
// across goroutines and snapshots.
type segData struct {
	n    int
	nums [][]float64
	cats [][]uint32
	nidx []numIndex
	cidx []catIndex
}

// numIndex is the per-segment index of one numeric column.
type numIndex struct {
	// min/max are the zone map over the non-NaN values; meaningless when
	// every value is NaN (perm empty).
	min, max float64
	// perm holds the segment-local rows sorted ascending by value, NaN rows
	// excluded. The sorted values themselves are not copied: position k's
	// value is col[perm[k]].
	perm []uint32
	// nan lists the rows whose value is NaN. They fail every comparison
	// except !=, exactly as the row-at-a-time scan path treats them.
	nan []uint32
}

// catIndex is the per-segment index of one categorical column: the
// code-sorted permutation. The equal range of a code inside it IS that
// code's posting list (perm[lo:hi] are the rows holding it).
type catIndex struct {
	min, max uint32
	perm     []uint32
}

// buildSegData indexes one sealed block. nums/cats are the frozen column
// buffers, owned by the segData from here on. The build is deterministic in
// the column values alone, which is what makes a reload from disk
// indistinguishable from the original resident form.
func buildSegData(nums [][]float64, cats [][]uint32) *segData {
	d := &segData{nums: nums, cats: cats}
	for _, col := range nums {
		if col != nil {
			d.n = len(col)
			break
		}
	}
	for _, col := range cats {
		if col != nil {
			d.n = len(col)
			break
		}
	}
	d.nidx = make([]numIndex, len(nums))
	d.cidx = make([]catIndex, len(cats))
	var rs radixSorter
	for j, col := range nums {
		if col != nil {
			d.nidx[j] = rs.numIndex(col)
		}
	}
	for j, col := range cats {
		if col != nil {
			d.cidx[j] = rs.catIndex(col)
		}
	}
	return d
}

// footprint is the byte size of every slice the segData holds (columns
// plus indexes), for the resident-tier memory accounting.
func (d *segData) footprint() int64 {
	var b int64
	for _, col := range d.nums {
		b += int64(len(col)) * 8
	}
	for _, col := range d.cats {
		b += int64(len(col)) * 4
	}
	for _, idx := range d.nidx {
		b += int64(len(idx.perm))*4 + int64(len(idx.nan))*4
	}
	for _, idx := range d.cidx {
		b += int64(len(idx.perm)) * 4
	}
	return b
}

// radixSorter builds the segment indexes with a stable LSD radix sort over
// uint64 keys, one byte per pass. Rows enter in ascending order and every
// pass is stable, so equal keys keep row order: perm is exactly the order
// "by value, then by row" that the search and the posting ranges rely on,
// in linear time. Its scratch is reused across the columns of a segment.
type radixSorter struct {
	keys, keys2 []uint64
	perm2       []uint32
}

// numIndex indexes a numeric column: NaN rows go to nan, every other row
// to perm, sorted by floatKey.
func (rs *radixSorter) numIndex(col []float64) numIndex {
	nans := 0
	for _, v := range col {
		if math.IsNaN(v) {
			nans++
		}
	}
	idx := numIndex{perm: make([]uint32, 0, len(col)-nans)}
	if nans > 0 {
		idx.nan = make([]uint32, 0, nans)
	}
	keys := rs.keyBuf(len(col) - nans)[:0]
	for i, v := range col {
		if math.IsNaN(v) {
			idx.nan = append(idx.nan, uint32(i))
		} else {
			idx.perm = append(idx.perm, uint32(i))
			keys = append(keys, floatKey(v))
		}
	}
	rs.sort(keys, idx.perm)
	idx.min, idx.max = zoneEnds(col, idx.perm)
	return idx
}

// catIndex indexes a categorical column: every row, sorted by code.
func (rs *radixSorter) catIndex(col []uint32) catIndex {
	idx := catIndex{perm: make([]uint32, len(col))}
	keys := rs.keyBuf(len(col))
	for i, c := range col {
		idx.perm[i] = uint32(i)
		keys[i] = uint64(c)
	}
	rs.sort(keys, idx.perm)
	idx.min, idx.max = zoneEnds(col, idx.perm)
	return idx
}

// floatKey maps a non-NaN float64 to a uint64 with the same order, and
// −0 to the key of +0 so the two compare equal, as they do as floats.
func floatKey(v float64) uint64 {
	if v == 0 {
		v = 0 // folds −0 onto +0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b // negative: larger magnitude sorts first
	}
	return b | 1<<63
}

// keyBuf returns key scratch of length n.
func (rs *radixSorter) keyBuf(n int) []uint64 {
	if cap(rs.keys) < n {
		rs.keys = make([]uint64, n)
	}
	return rs.keys[:n]
}

// sort reorders perm (and keys with it, keys[i] being perm[i]'s key)
// stably by key. One counting pass histograms all eight bytes; a byte
// that is the same in every key is skipped, so a column pays only for
// the bytes in which its values differ.
func (rs *radixSorter) sort(keys []uint64, perm []uint32) {
	n := len(perm)
	if n < 2 {
		return
	}
	var counts [8][256]uint32
	for _, k := range keys {
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	if cap(rs.keys2) < n {
		rs.keys2 = make([]uint64, n)
		rs.perm2 = make([]uint32, n)
	}
	srcK, srcP := keys, perm
	dstK, dstP := rs.keys2[:n], rs.perm2[:n]
	for d := range counts {
		c := &counts[d]
		if c[byte(keys[0]>>(8*d))] == uint32(n) {
			continue // every key has this byte
		}
		var offs [256]uint32
		var sum uint32
		for b, cnt := range c {
			offs[b] = sum
			sum += cnt
		}
		shift := uint(8 * d)
		for i, k := range srcK {
			b := byte(k >> shift)
			o := offs[b]
			offs[b] = o + 1
			dstK[o] = k
			dstP[o] = srcP[i]
		}
		srcK, dstK = dstK, srcK
		srcP, dstP = dstP, srcP
	}
	if &srcP[0] != &perm[0] {
		copy(perm, srcP)
	}
}

// zoneEnds returns the zone map of a column from its sorted permutation:
// the values at both ends, or zeros when perm is empty. Every perm entry
// must index col.
func zoneEnds[T float64 | uint32](col []T, perm []uint32) (lo, hi T) {
	if m := len(perm); m > 0 {
		lo, hi = col[perm[0]], col[perm[m-1]]
	}
	return lo, hi
}

// eval evaluates a planned conjunction over the segment into words, the
// segment's word-aligned window of the snapshot bitmap (len n/64, zero on
// entry). scratch is a caller-owned window of the same length. The result
// is exactly the rows a row-at-a-time scan would match.
//
// Every conjunct first resolves to a span (zone map, then binary search
// through the permutation).
// Then each span costs min(k, n−k) bit writes for its k matching rows: at
// most n/2 matches are scattered, more are written as a word fill that
// clears the n−k failing rows. The span with the fewest matches fills the
// window. A later span whose failing rows are fewer clears them straight
// in the window; only a later span scattering its matches needs scratch,
// zeroed, filled and ANDed in.
func (d *segData) eval(p *plan, words, scratch []uint64) {
	var buf [4]span // keeps the spans of a typical plan off the heap
	sps := buf[:0]
	for i := 0; i < len(p.ivs)+len(p.rest); i++ {
		var sp span
		if i < len(p.ivs) {
			sp = d.intervalSpan(&p.ivs[i])
		} else {
			sp = d.equalSpan(p.rest[i-len(p.ivs)])
		}
		if sp.k == 0 {
			return // no row matches: the window stays empty
		}
		if sp.k == d.n {
			continue // every row matches: the conjunct constrains nothing here
		}
		sps = append(sps, sp)
		if last := len(sps) - 1; sp.k < sps[0].k {
			sps[0], sps[last] = sps[last], sps[0]
		}
	}
	if len(sps) == 0 {
		setAllSegment(words, d.n)
		return
	}
	for i := range sps {
		sp := &sps[i]
		switch {
		case 2*sp.k > d.n:
			if i == 0 {
				setAllSegment(words, d.n)
			}
			sp.rows(words, false, clearRows)
		case i == 0:
			sp.rows(words, true, setRows)
		default:
			zeroWords(scratch)
			sp.rows(scratch, true, setRows)
			andWords(words, scratch)
		}
		if i+1 < len(sps) && !anyWord(words) {
			return // the conjunction is already empty: skip the rest
		}
	}
}

// span is one conjunct resolved against a segment. The rows perm[lo:hi]
// are inside it; every other row (the rest of perm, plus the nan rows of a
// numeric column) is outside. An interval or categorical = matches the
// inside, a != matches the outside: NaN rows and absent codes fail every
// interval and pass every !=, exactly as the scan path treats them. k is
// the number of matching rows.
type span struct {
	perm, nan []uint32
	lo, hi, k int
	out       bool
}

// rows applies op to the span's matching rows (match) or its failing ones.
func (sp *span) rows(ws []uint64, match bool, op func([]uint64, []uint32)) {
	if match != sp.out {
		op(ws, sp.perm[sp.lo:sp.hi])
		return
	}
	op(ws, sp.perm[:sp.lo])
	op(ws, sp.perm[sp.hi:])
	op(ws, sp.nan)
}

// intervalSpan resolves one merged interval: a single contiguous range of
// the sorted permutation, however many range conditions produced it. The
// zone map settles the segment first: an interval disjoint from [min,max]
// matches nothing. A bound that every non-NaN value passes — among them an
// inclusive −∞ lower or +∞ upper bound, so one side of every one-sided
// threshold — is that end of perm without a search; an interval covering
// [min,max] of a NaN-free column therefore spans every row. Any other
// bound costs one search.
func (d *segData) intervalSpan(iv *numInterval) span {
	idx := &d.nidx[iv.col]
	sp := span{perm: idx.perm, nan: idx.nan}
	if len(idx.perm) == 0 || iv.lo > idx.max || iv.lo == idx.max && !iv.loIncl ||
		iv.hi < idx.min || iv.hi == idx.min && !iv.hiIncl {
		return sp
	}
	col, n := d.nums[iv.col], len(idx.perm)
	sp.hi = n
	if iv.lo > idx.min || iv.lo == idx.min && !iv.loIncl {
		sp.lo = searchPerm(col, idx.perm, 0, n, iv.lo, !iv.loIncl)
	}
	if iv.hi < idx.max || iv.hi == idx.max && !iv.hiIncl {
		sp.hi = searchPerm(col, idx.perm, 0, n, iv.hi, iv.hiIncl)
	}
	sp.k = sp.hi - sp.lo
	return sp
}

// equalSpan resolves a residual condition — numeric != or categorical
// =/!= — to the equal range of its value, which is empty when the value is
// NaN, absent from the dictionary or outside the zone map. A value at an
// end of the zone map starts or ends its range at that end of perm without
// a search, so a two-code column pays one search, not two.
func (d *segData) equalSpan(c compiledCond) span {
	var sp span
	if c.numeric {
		idx := &d.nidx[c.col]
		sp = span{perm: idx.perm, nan: idx.nan, out: true} // the planner leaves only != here
		if len(idx.perm) > 0 && c.v >= idx.min && c.v <= idx.max {
			col, n := d.nums[c.col], len(idx.perm)
			sp.hi = n
			if c.v > idx.min {
				sp.lo = searchPerm(col, idx.perm, 0, n, c.v, false)
			}
			if c.v < idx.max {
				sp.hi = searchPerm(col, idx.perm, sp.lo, n, c.v, true)
			}
		}
	} else {
		idx := &d.cidx[c.col]
		sp = span{perm: idx.perm, out: c.op == Ne}
		if c.codeOK && len(idx.perm) > 0 && c.code >= idx.min && c.code <= idx.max {
			col, n := d.cats[c.col], len(idx.perm)
			sp.hi = n
			if c.code > idx.min {
				sp.lo = searchPerm(col, idx.perm, 0, n, c.code, false)
			}
			if c.code < idx.max {
				sp.hi = searchPerm(col, idx.perm, sp.lo, n, c.code, true)
			}
		}
	}
	sp.k = sp.hi - sp.lo
	if sp.out {
		sp.k = d.n - sp.k
	}
	return sp
}

// setAllSegment fills the window's first n bits (n is a multiple of 64 for
// sealed segments, so this is a plain word fill).
func setAllSegment(out []uint64, n int) {
	full := n >> 6
	setAllWords(out[:full])
	if r := uint(n) & 63; r != 0 {
		out[full] |= (1 << r) - 1
	}
}

// searchPerm returns the first position k in [lo, hi) whose value
// col[perm[k]] is >= v, or > v when strict; hi when there is none. The
// positions must be sorted ascending by value, and v is never NaN. The
// top steps of every search land on the same few positions, so they stay
// cached across queries; only the last steps miss.
func searchPerm[T float64 | uint32](col []T, perm []uint32, lo, hi int, v T, strict bool) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x := col[perm[m]]; x > v || !strict && x == v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}
