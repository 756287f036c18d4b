package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"unsafe"
)

// A segment is an immutable, fully indexed block of exactly segSize rows.
// The segment value itself is only the handle — global position, row count,
// zone maps and tier state; the decoded dictionary-coded columns and their
// indexes live in a segData that the handle either holds resident (the
// in-memory tier) or decodes on demand from its segment file (the
// spilled tier, read through src). Every reader of columns goes through
// acquire, so the evaluation kernels are tier-blind. Once built, a
// segment's data is never mutated — the immutability that gives
// snapshots their isolation for free.
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
	src  *fileSource // durable backing; nil for memory-only segments

	// data is the resident decoded form. Non-nil means the segment is in
	// the resident tier; nil means it is spilled and acquire decodes it
	// through src. Promotion and eviction flip it with CAS, so a reader
	// that loaded a non-nil pointer keeps a consistent immutable view even
	// if the segment is evicted underneath it.
	data atomic.Pointer[segData]

	// lastUse orders eviction: the tier's use clock at the last acquire.
	// Only a store with a memory cap evicts, so only its acquires stamp it.
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

// zonesOf reads every column's zone map off a decoded segment's
// dictionaries (numZone); categorical columns get the empty zone.
func zonesOf(d *segData) []zone {
	zs := make([]zone, len(d.nums))
	for j := range d.nums {
		zs[j] = numZone(&d.nums[j])
	}
	return zs
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
	if sg.tier != nil && sg.tier.memCap > 0 { // only eviction under a cap reads the stamp
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
// (Snapshot.Sum, Float and Cat). A query's Eval has already read and
// verified every segment its answer re-reads (with or without
// conditions), so a failure there means the file changed underneath a
// live store between the two reads: it panics, and a serving layer's
// panic recovery answers with an error.
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
			return nil, fmt.Errorf("store: %s: column %d decodes to zone [%g, %g], manifest says [%g, %g]", sg.src.name, j, z.min, z.max, h.min, h.max)
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

// segData is the decoded, evaluable form of one sealed segment: every
// column dictionary-coded (dictCol), numeric ones over float64 values and
// categorical ones over the store-wide dictionary's codes. It is immutable
// once built (dictBuilder.build at seal, decodeSegment from a file) and
// shared freely across goroutines and snapshots.
type segData struct {
	n    int
	nums []dictCol[float64] // per schema column; the zero value at categorical columns
	cats []dictCol[uint32]  // per schema column; the zero value at numeric columns
}

// MaxSegmentSize is the most rows a sealed segment may hold: a row offset,
// a permutation entry and a dictionary code each fit in a uint16.
const MaxSegmentSize = 1 << 16

// checkSegmentSize accepts the segment sizes a store can seal: multiples
// of 64 (each segment owns whole words of the snapshot bitmap) in
// [64, MaxSegmentSize].
func checkSegmentSize(n int) error {
	if n < 64 || n > MaxSegmentSize || n%64 != 0 {
		return fmt.Errorf("store: segment size must be a multiple of 64 in [64, %d], got %d", MaxSegmentSize, n)
	}
	return nil
}

// dictCol is one dictionary-coded column of a sealed segment. The value
// of row i is dict[codes[i]]; start and perm are the index over codes,
// derived from them alone by indexCodes.
type dictCol[T float64 | uint32] struct {
	// dict holds the segment's distinct values, ascending in entryLess
	// order: numbers by value with −0 just before +0, then any NaN
	// payloads by bit pattern; categorical codes by code.
	dict []T
	// codes holds each row's index into dict.
	codes []uint16
	// start[c] is the first perm position of code c: code c's rows are
	// perm[pos(c):pos(c+1)].
	start []uint16
	// perm holds the rows ordered by code, then by row.
	perm []uint16
	// nanFrom is the index of dict's first NaN entry, len(dict) when there
	// is none. The NaN rows are perm[pos(nanFrom):]; they fail every
	// comparison except !=, exactly as the row-at-a-time scan treats them.
	nanFrom int
}

// at returns row i's value.
func (c *dictCol[T]) at(i int) T { return c.dict[c.codes[i]] }

// pos returns the first perm position of code k, or the row count when k
// is past the last code.
func (c *dictCol[T]) pos(k int) int {
	if k < len(c.start) {
		return int(c.start[k])
	}
	return len(c.perm)
}

// bytes is the byte size of every slice the column holds.
func (c *dictCol[T]) bytes() int64 {
	return int64(len(c.dict))*int64(unsafe.Sizeof(*new(T))) + 2*int64(len(c.codes)+len(c.start)+len(c.perm))
}

// numZone reads a numeric column's zone map off its dictionary: the
// values at both ends of its non-NaN entries, or the empty zone. Where −0
// and +0 share an end, the end is the one a scan in row order meets
// first (min) or last (max), so the zone is bit-for-bit what the zone
// maps have always recorded.
func numZone(c *dictCol[float64]) zone {
	m := c.nanFrom
	if m == 0 {
		return emptyZone
	}
	z := zone{c.dict[0], c.dict[m-1]}
	signedZeros := func(k int) bool {
		return math.Float64bits(c.dict[k]) == 1<<63 && math.Float64bits(c.dict[k+1]) == 0
	}
	if m > 1 && signedZeros(0) && c.perm[c.pos(1)] < c.perm[0] {
		z.min = c.dict[1] // the first zero row holds +0
	}
	if m > 1 && signedZeros(m-2) && c.perm[c.pos(m-1)-1] > c.perm[c.pos(m)-1] {
		z.max = c.dict[m-2] // the last zero row holds −0
	}
	return z
}

// footprint is the byte size of every slice the segData holds, for the
// resident-tier memory accounting.
func (d *segData) footprint() int64 {
	var b int64
	for j := range d.nums {
		b += d.nums[j].bytes()
	}
	for j := range d.cats {
		b += d.cats[j].bytes()
	}
	return b
}

// orderKey maps a non-NaN float64 to a uint64 with the same order, −0
// just below +0.
func orderKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b // negative: larger magnitude sorts first
	}
	return b | 1<<63
}

// entryLess is the order of a numeric dictionary: numbers by orderKey,
// then NaNs by bit pattern.
func entryLess(a, b float64) bool {
	if an, bn := math.IsNaN(a), math.IsNaN(b); an || bn {
		return an && bn && math.Float64bits(a) < math.Float64bits(b) || !an
	}
	return orderKey(a) < orderKey(b)
}

// dictBuilder dictionary-codes the columns of a segment from their
// distinct values; its scratch is reused across columns and, held by a
// store, across the store's seals. A column is coded in three steps
// (code):
//
//  1. One pass hashes every row's value into an open-addressing table,
//     which gives each distinct value an id, in order of first appearance,
//     and writes the row's id into its code slot.
//  2. The distinct values alone are radix-sorted: numbers by orderKey, then
//     any NaN payloads, as a group of their own, by bit pattern.
//  3. A rank table maps each id to its sorted position, and every row's id
//     is replaced by its rank: the row's code.
//
// A data column recorded at a fixed precision holds a few hundred distinct
// values per segment, so the sort moves hundreds of keys, not thousands of
// rows; a column of all-distinct values pays the hash pass on top of the
// sort it always paid. The hash is multiply-shift with an odd multiplier
// drawn per builder: ids, and so the coded column, do not depend on it, and
// no choice of values can make the table's probe runs long but by chance.
type dictBuilder struct {
	radixSorter
	mul   uint64   // the hash multiplier (odd)
	bits  []uint64 // the column's values as float64 bit patterns
	slots []uint32 // the hash table: 1 + the id of the value in a slot, 0 when empty
	vals  []uint64 // the distinct bit patterns, by id
	rank  []uint16 // id → code
}

// newDictBuilder returns a builder; its scratch is allocated by its first
// build.
func newDictBuilder() *dictBuilder { return &dictBuilder{mul: rand.Uint64() | 1} }

// build dictionary-codes one sealed block. nums/cats are the frozen
// column buffers; the segData copies what it keeps out of them. The build
// is deterministic in the column values alone, and a decode rebuilds the
// index with the same indexCodes pass, which is what makes a reload from
// disk indistinguishable from the original resident form.
func (db *dictBuilder) build(nums [][]float64, cats [][]uint32) *segData {
	d := &segData{nums: make([]dictCol[float64], len(nums)), cats: make([]dictCol[uint32], len(cats))}
	for j, col := range nums {
		if col != nil {
			d.n = len(col)
			d.nums[j] = db.numCol(col)
		}
	}
	for j, col := range cats {
		if col != nil {
			d.n = len(col)
			d.cats[j] = db.catCol(col)
		}
	}
	return d
}

// numCol dictionary-codes a numeric column.
func (db *dictBuilder) numCol(col []float64) dictCol[float64] {
	bits := db.bitsOf(len(col))
	for i, v := range col {
		bits[i] = math.Float64bits(v)
	}
	c := dictCol[float64]{codes: make([]uint16, len(col))}
	sorted, nanFrom := db.code(bits, c.codes)
	c.dict = make([]float64, len(sorted))
	for k, b := range sorted {
		c.dict[k] = math.Float64frombits(b)
	}
	c.nanFrom = nanFrom
	c.start, c.perm, _ = indexCodes(c.codes, len(c.dict))
	return c
}

// catCol dictionary-codes a categorical column by its store-wide codes. A
// code widened to 64 bits is the bit pattern of a non-negative subnormal
// (or zero): never a NaN, and ordered by orderKey as by code, so code
// orders it exactly as the numbers of a numeric column.
func (db *dictBuilder) catCol(col []uint32) dictCol[uint32] {
	bits := db.bitsOf(len(col))
	for i, v := range col {
		bits[i] = uint64(v)
	}
	c := dictCol[uint32]{codes: make([]uint16, len(col))}
	sorted, _ := db.code(bits, c.codes)
	c.dict = make([]uint32, len(sorted))
	for k, b := range sorted {
		c.dict[k] = uint32(b)
	}
	c.nanFrom = len(c.dict)
	c.start, c.perm, _ = indexCodes(c.codes, len(c.dict))
	return c
}

// bitsOf returns bit-pattern scratch of length n.
func (db *dictBuilder) bitsOf(n int) []uint64 {
	if cap(db.bits) < n {
		db.bits = make([]uint64, n)
	}
	return db.bits[:n]
}

// code writes every row's code (its value's position in the dictionary)
// into codes and returns the dictionary as bit patterns, ascending in
// entryLess order, with the index of its first NaN entry. bits holds the
// rows' values as float64 bit patterns. The returned slice is scratch,
// valid until the next call.
func (db *dictBuilder) code(bits []uint64, codes []uint16) (sorted []uint64, nanFrom int) {
	// 1. Distinct values: a table of at least four times the rows stays at
	// most a quarter full, so most rows find their slot at the first probe.
	size, shift := 64, uint(58)
	for size < 4*len(bits) {
		size, shift = size<<1, shift-1
	}
	if cap(db.slots) < size {
		db.slots = make([]uint32, size)
	}
	slots := db.slots[:size]
	clear(slots)
	mask := uint64(size - 1)
	if cap(db.vals) < len(bits) {
		db.vals = make([]uint64, len(bits))
	}
	vals := db.vals[:len(bits)]
	codes = codes[:len(bits)]
	m := 0
	for i, b := range bits {
		h := b * db.mul >> shift
		for {
			id := slots[h]
			if id == 0 {
				vals[m] = b
				codes[i] = uint16(m)
				m++
				slots[h] = uint32(m)
				break
			}
			if vals[id-1] == b {
				codes[i] = uint16(id - 1)
				break
			}
			h = (h + 1) & mask
		}
	}
	vals = vals[:m]

	// 2. Sort them: the numbers at the front, the NaNs at the back. Every
	// key is distinct, so the order in which each group is filled does not
	// matter.
	keys, order := db.bufs(len(vals))
	nan := len(vals)
	for id, b := range vals {
		if v := math.Float64frombits(b); math.IsNaN(v) {
			nan--
			keys[nan], order[nan] = b, uint16(id)
		} else {
			keys[nanFrom], order[nanFrom] = orderKey(v), uint16(id)
			nanFrom++
		}
	}
	db.sort(keys[:nanFrom], order[:nanFrom])
	db.sort(keys[nanFrom:], order[nanFrom:])

	// 3. Rank. The sorted keys are no longer needed, so their slots take
	// the dictionary's bit patterns.
	if cap(db.rank) < len(vals) {
		db.rank = make([]uint16, len(vals))
	}
	rank := db.rank[:len(vals)]
	for p, id := range order {
		rank[id] = uint16(p)
		keys[p] = vals[id]
	}
	for i, id := range codes {
		codes[i] = rank[id]
	}
	return keys, nanFrom
}

// indexCodes derives a column's index from its codes with one counting
// pass: rows in ascending order land at their code's next free position,
// so perm is ordered by code, then by row, and start[c] is where code c's
// rows begin. It reports false when some code in [0, ndict) has no row.
// Every code must be below ndict. Seal and decode both build the index
// here, so a decoded segment's index is the sealed one by construction.
func indexCodes(codes []uint16, ndict int) (start, perm []uint16, ok bool) {
	next := make([]uint32, ndict)
	for _, k := range codes {
		next[k]++
	}
	start = make([]uint16, ndict)
	var sum uint32
	for k, cnt := range next {
		if cnt == 0 {
			return nil, nil, false
		}
		start[k], next[k] = uint16(sum), sum
		sum += cnt
	}
	perm = make([]uint16, len(codes))
	for i, k := range codes {
		perm[next[k]] = uint16(i)
		next[k]++
	}
	return start, perm, true
}

// radixSorter sorts with a stable LSD radix sort over uint64 keys, one byte
// per pass, in linear time; its scratch is reused across sorts.
type radixSorter struct {
	keys, keys2   []uint64
	order, order2 []uint16
}

// bufs returns key and id scratch of length n.
func (rs *radixSorter) bufs(n int) ([]uint64, []uint16) {
	if cap(rs.keys) < n {
		rs.keys = make([]uint64, n)
		rs.order = make([]uint16, n)
	}
	return rs.keys[:n], rs.order[:n]
}

// sort reorders order (and keys with it, keys[i] being order[i]'s key)
// stably by key. One counting pass histograms all eight bytes; a byte
// that is the same in every key is skipped, so a column pays only for
// the bytes in which its values differ.
func (rs *radixSorter) sort(keys []uint64, order []uint16) {
	n := len(order)
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
		rs.order2 = make([]uint16, n)
	}
	srcK, srcP := keys, order
	dstK, dstP := rs.keys2[:n], rs.order2[:n]
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
	if &srcP[0] != &order[0] {
		copy(order, srcP)
		copy(keys, srcK)
	}
}

// eval evaluates a planned conjunction over the segment into words, the
// segment's word-aligned window of the snapshot bitmap (len n/64, zero on
// entry). scratch is a caller-owned window of the same length. The result
// is exactly the rows a row-at-a-time scan would match.
//
// Every conjunct first resolves to a span (dictCol.span: a binary search
// of the column's dictionary, then a start lookup).
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
			iv := &p.ivs[i]
			sp = d.nums[iv.col].span(iv.lo, !iv.loIncl, iv.hi, !iv.hiIncl)
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

// span is one conjunct resolved against a segment column. The rows
// perm[lo:hi] are inside it; every other row (the rest of perm, the NaN
// rows of a numeric column among them) is outside. An interval or
// categorical = matches the inside, a != matches the outside: NaN rows
// and absent codes fail every interval and pass every !=, exactly as the
// scan path treats them. k is the number of matching rows.
type span struct {
	perm      []uint16
	lo, hi, k int
	out       bool
}

// rows applies op to the span's matching rows (match) or its failing ones.
func (sp *span) rows(ws []uint64, match bool, op func([]uint64, []uint16)) {
	if match != sp.out {
		op(ws, sp.perm[sp.lo:sp.hi])
		return
	}
	op(ws, sp.perm[:sp.lo])
	op(ws, sp.perm[sp.hi:])
}

// span resolves the values between lo and hi — each end excluded when its
// open flag is set — to the perm range of their rows: a binary search of
// the non-NaN dictionary entries for each end, then a start lookup. The
// dictionary's ends settle the segment first: a range disjoint from them
// (or with a NaN end) matches nothing, and an end that every entry passes
// is that end of the range without a search, so one side of every
// one-sided threshold costs nothing and a range covering both ends spans
// every non-NaN row. It is the one span resolver of both column kinds.
func (c *dictCol[T]) span(lo T, loOpen bool, hi T, hiOpen bool) span {
	sp := span{perm: c.perm}
	vals := c.dict[:c.nanFrom]
	if len(vals) == 0 {
		return sp
	}
	first, last := vals[0], vals[len(vals)-1]
	if !(lo < last || lo == last && !loOpen) || !(hi > first || hi == first && !hiOpen) {
		return sp
	}
	a, b := 0, len(vals)
	if lo > first || lo == first && loOpen {
		a = searchDict(vals, lo, loOpen)
	}
	if hi < last || hi == last && hiOpen {
		b = searchDict(vals, hi, !hiOpen)
	}
	sp.lo, sp.hi = c.pos(a), c.pos(b)
	sp.k = sp.hi - sp.lo
	return sp
}

// equalSpan resolves a residual condition — numeric != or categorical
// =/!= — to the perm range of its value's rows, which is empty when the
// value is NaN or absent from the segment.
func (d *segData) equalSpan(c compiledCond) span {
	var sp span
	if c.numeric {
		sp = d.nums[c.col].span(c.v, false, c.v, false)
		sp.out = true // the planner leaves only != here
	} else {
		col := &d.cats[c.col]
		sp = span{perm: col.perm}
		if c.codeOK {
			sp = col.span(c.code, false, c.code, false)
		}
		sp.out = c.op == Ne
	}
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

// searchDict returns the first index of the ascending vals whose value is
// >= v, or > v when strict; len(vals) when there is none. v is never NaN.
// A dictionary holds a few hundred values at most for data recorded at a
// fixed precision, so its top steps stay cached across queries.
func searchDict[T float64 | uint32](vals []T, v T, strict bool) int {
	lo, hi := 0, len(vals)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x := vals[m]; x > v || !strict && x == v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// matchRow is the compiled row-at-a-time evaluator over a sealed segment:
// EvalScan's oracle, reading every value back through its dictionary.
func (d *segData) matchRow(cc []compiledCond, i int) bool {
	for _, c := range cc {
		if c.numeric && !c.matchNum(d.nums[c.col].at(i)) || !c.numeric && !c.matchCode(d.cats[c.col].at(i)) {
			return false
		}
	}
	return true
}
