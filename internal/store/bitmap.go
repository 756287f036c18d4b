package store

import "math/bits"

// Bitmap is a fixed-length bitset over row indices [0, n), backed by a
// contiguous []uint64 so the combining operations run word-parallel — the
// same idiom as the PIR answer kernel's word-XOR sweep. A compiled
// predicate evaluates to one Bitmap per snapshot; conjunctions intersect
// with And/AndNot over 64 rows per instruction instead of row-at-a-time
// boolean logic.
//
// The word layout is load-bearing for the segment engine: segments are
// SegmentSize rows (a multiple of 64), so every segment owns a disjoint,
// word-aligned window of the snapshot bitmap and parallel per-segment
// evaluation writes to disjoint words with no synchronisation.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap returns an empty bitmap over [0, n).
func NewBitmap(n int) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of row positions the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the backing words. The final word's bits at positions ≥ n
// are always zero (every mutating method maintains this invariant).
func (b *Bitmap) Words() []uint64 { return b.words }

// Set marks row i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether row i is set.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetAll marks every row in [0, n), leaving tail bits beyond n clear.
func (b *Bitmap) SetAll() {
	for w := range b.words {
		b.words[w] = ^uint64(0)
	}
	b.clearTail()
}

// Clear resets every row.
func (b *Bitmap) Clear() {
	for w := range b.words {
		b.words[w] = 0
	}
}

// clearTail zeroes the bits of the final word at positions ≥ n.
func (b *Bitmap) clearTail() {
	if r := uint(b.n) & 63; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << r) - 1
	}
}

// And intersects b with o in place. The bitmaps must be the same length.
func (b *Bitmap) And(o *Bitmap) {
	andWords(b.words, o.words)
}

// AndNot removes o's rows from b in place (b &= ^o).
func (b *Bitmap) AndNot(o *Bitmap) {
	for w, v := range o.words {
		b.words[w] &^= v
	}
}

// Or unions o into b in place.
func (b *Bitmap) Or(o *Bitmap) {
	for w, v := range o.words {
		b.words[w] |= v
	}
}

// Count returns the number of set rows via per-word popcount.
func (b *Bitmap) Count() int { return countWords(b.words) }

// Any reports whether at least one row is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Rows returns the set rows in ascending order.
func (b *Bitmap) Rows() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}

// ForEach calls fn for every set row in ascending order.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// --- word-window helpers -------------------------------------------------
//
// Per-segment evaluation operates directly on a word-aligned window of the
// snapshot bitmap; these free functions are the word-parallel kernels.

// andWords intersects dst with src word-parallel: dst[w] &= src[w].
func andWords(dst, src []uint64) {
	for w, v := range src {
		dst[w] &= v
	}
}

// setAllWords fills every word with all-ones (callers trim tails).
func setAllWords(ws []uint64) {
	for w := range ws {
		ws[w] = ^uint64(0)
	}
}

// zeroWords clears every word.
func zeroWords(ws []uint64) {
	for w := range ws {
		ws[w] = 0
	}
}

// anyWord reports whether any word is non-zero (conjunction short-circuit).
func anyWord(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return true
		}
	}
	return false
}

// countWords sums the popcounts of ws.
func countWords(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// setBit marks local row r in a word window.
func setBit(ws []uint64, r uint32) { ws[r>>6] |= 1 << (r & 63) }

// setRows marks every local row of rows in a word window.
func setRows(ws []uint64, rows []uint16) {
	for _, r := range rows {
		ws[r>>6] |= 1 << (r & 63)
	}
}

// clearRows unmarks every local row of rows in a word window.
func clearRows(ws []uint64, rows []uint16) {
	for _, r := range rows {
		ws[r>>6] &^= 1 << (r & 63)
	}
}
