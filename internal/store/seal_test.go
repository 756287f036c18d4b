package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// refNumIndex is the reference numeric index: NaN rows to nan, the rest
// comparison-sorted by value, equal values (−0 and +0 among them) in row
// order.
func refNumIndex(col []float64) numIndex {
	var idx numIndex
	idx.perm = []uint32{}
	for i, v := range col {
		if math.IsNaN(v) {
			idx.nan = append(idx.nan, uint32(i))
		} else {
			idx.perm = append(idx.perm, uint32(i))
		}
	}
	sort.Slice(idx.perm, func(a, b int) bool {
		va, vb := col[idx.perm[a]], col[idx.perm[b]]
		if va != vb {
			return va < vb
		}
		return idx.perm[a] < idx.perm[b]
	})
	idx.min, idx.max = zoneEnds(col, idx.perm)
	return idx
}

// refCatIndex is the reference categorical index: every row,
// comparison-sorted by code, equal codes in row order.
func refCatIndex(col []uint32) catIndex {
	idx := catIndex{perm: make([]uint32, len(col))}
	for i := range col {
		idx.perm[i] = uint32(i)
	}
	sort.Slice(idx.perm, func(a, b int) bool {
		ca, cb := col[idx.perm[a]], col[idx.perm[b]]
		if ca != cb {
			return ca < cb
		}
		return idx.perm[a] < idx.perm[b]
	})
	idx.min, idx.max = zoneEnds(col, idx.perm)
	return idx
}

// indexColumns returns numeric and categorical columns of length n that
// stress the index build: constant, monotone and shuffled runs, ±0, ±Inf,
// subnormals, NaN-heavy and all-NaN columns, wide-range values whose keys
// differ in every byte, and codes with gaps or a single code.
func indexColumns(n int, rng *rand.Rand) (names []string, nums [][]float64, cats [][]uint32) {
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	sub := math.SmallestNonzeroFloat64
	numGen := []struct {
		name string
		f    func(i int) float64
	}{
		{"allEqual", func(int) float64 { return 42.5 }},
		{"ascending", func(i int) float64 { return float64(i) / 8 }},
		{"descending", func(i int) float64 { return float64(n-i) / 8 }},
		{"negDescending", func(i int) float64 { return -float64(i) * 1.5 }},
		{"zeros", func(i int) float64 { return []float64{negZero, 0, negZero}[i%3] }},
		{"infs", func(i int) float64 { return []float64{inf, -inf, 1, -1, negZero}[i%5] }},
		{"subnormals", func(i int) float64 {
			return []float64{sub, -sub, 3 * sub, negZero, 0, -2 * sub, math.SmallestNonzeroFloat64 * 1e10}[i%7]
		}},
		{"nanHeavy", func(i int) float64 {
			if i%5 != 0 {
				return nan
			}
			return float64(i%13) - 6
		}},
		{"allNaN", func(int) float64 { return nan }},
		{"ties", func(int) float64 { return math.Round(rng.NormFloat64()*50) / 10 }},
		{"wide", func(int) float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)) }},
	}
	for _, g := range numGen {
		col := make([]float64, n)
		for i := range col {
			col[i] = g.f(i)
		}
		if g.name != "ascending" && g.name != "descending" && g.name != "negDescending" {
			rng.Shuffle(n, func(a, b int) { col[a], col[b] = col[b], col[a] })
		}
		names = append(names, g.name)
		nums = append(nums, col)
		cats = append(cats, nil)
	}
	catGen := []struct {
		name string
		f    func(i int) uint32
	}{
		{"oneCode", func(int) uint32 { return 3 }},
		{"gaps", func(int) uint32 { return []uint32{0, 7, 300, 70000, 1 << 31}[rng.Intn(5)] }},
		{"descendingCodes", func(i int) uint32 { return uint32(n - i) }},
		{"manyCodes", func(int) uint32 { return uint32(rng.Intn(1 << 20)) }},
	}
	for _, g := range catGen {
		col := make([]uint32, n)
		for i := range col {
			col[i] = g.f(i)
		}
		names = append(names, g.name)
		nums = append(nums, nil)
		cats = append(cats, col)
	}
	return names, nums, cats
}

// TestIndexBuildMatchesComparisonSort pins the radix-built indexes to the
// comparison sort they replace: the same perm and nan, entry for entry,
// and the same zone ends, bit for bit. All columns of one length go
// through one buildSegData, so the sorter's scratch is reused across
// columns of different key counts.
func TestIndexBuildMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{0, 1, 63, 64, DefaultSegmentSize} {
		names, nums, cats := indexColumns(n, rng)
		d := buildSegData(nums, cats)
		for j, name := range names {
			if nums[j] != nil {
				got, want := d.nidx[j], refNumIndex(nums[j])
				if !slices.Equal(got.perm, want.perm) || !slices.Equal(got.nan, want.nan) {
					t.Errorf("n=%d %s: perm/nan differ from the comparison sort", n, name)
				}
				if math.Float64bits(got.min) != math.Float64bits(want.min) || math.Float64bits(got.max) != math.Float64bits(want.max) {
					t.Errorf("n=%d %s: zone [%g, %g], want [%g, %g]", n, name, got.min, got.max, want.min, want.max)
				}
				continue
			}
			got, want := d.cidx[j], refCatIndex(cats[j])
			if !slices.Equal(got.perm, want.perm) || got.min != want.min || got.max != want.max {
				t.Errorf("n=%d %s: categorical index differs from the comparison sort", n, name)
			}
		}
	}
}

// encodeBlockRef is the reference block encoder: the format of disk.go
// written one value at a time into memory, with the CRC taken over the
// finished body.
func encodeBlockRef(base, rows int, nums [][]float64, cats [][]uint32, idx *segData) []byte {
	le := binary.LittleEndian
	magic := tailMagic
	if idx != nil {
		magic = segMagic
	}
	b := []byte(magic)
	b = le.AppendUint32(b, uint32(len(nums)))
	b = le.AppendUint32(b, uint32(rows))
	b = le.AppendUint64(b, uint64(base))
	u32s := func(vs []uint32) {
		for _, v := range vs {
			b = le.AppendUint32(b, v)
		}
	}
	for j := range nums {
		if nums[j] != nil {
			b = append(b, tagNumeric)
			for _, v := range nums[j][:rows] {
				b = le.AppendUint64(b, math.Float64bits(v))
			}
			if idx != nil {
				ni := &idx.nidx[j]
				b = le.AppendUint32(b, uint32(len(ni.perm)))
				u32s(ni.perm)
				u32s(ni.nan)
			}
			continue
		}
		b = append(b, tagCategorical)
		u32s(cats[j][:rows])
		if idx != nil {
			u32s(idx.cidx[j].perm)
		}
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestBlockFilesMatchPerValueEncoder pins the bytes writeBlockFile puts
// on disk, and the CRC it reports, to the per-value reference encoder:
// for a SEG v2 segment whose columns span several write chunks, a full
// default segment, and TAIL blocks of 1 and of 100 rows cut out of longer
// buffers, as the open tail's are.
func TestBlockFilesMatchPerValueEncoder(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		name       string
		n, rows    int
		seg        bool
		base       int
		wantChunks bool
	}{
		{name: "segLong", n: 3*DefaultSegmentSize + 100, seg: true, base: 1 << 33, wantChunks: true},
		{name: "segDefault", n: DefaultSegmentSize, seg: true, base: 5 * DefaultSegmentSize},
		{name: "tail1", n: DefaultSegmentSize, rows: 1, base: 64},
		{name: "tail100", n: DefaultSegmentSize, rows: 100, base: 3 * DefaultSegmentSize},
	} {
		_, nums, cats := indexColumns(c.n, rng)
		rows := c.rows
		var idx *segData
		if c.seg {
			idx = buildSegData(nums, cats)
			rows = c.n
		}
		if c.wantChunks && 8*rows <= crcChunk {
			t.Fatalf("%s: %d rows fit one write chunk", c.name, rows)
		}
		size, crc, err := writeBlockFile(dir, c.name, c.base, rows, nums, cats, idx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, c.name))
		if err != nil {
			t.Fatal(err)
		}
		want := encodeBlockRef(c.base, rows, nums, cats, idx)
		if !bytes.Equal(got, want) {
			at := 0
			for at < min(len(got), len(want)) && got[at] == want[at] {
				at++
			}
			t.Errorf("%s: %d bytes differ from the %d-byte reference from byte %d", c.name, len(got), len(want), at)
		}
		if size != int64(len(want)) || crc != crc32.ChecksumIEEE(want) {
			t.Errorf("%s: reported size %d crc %08x, want %d %08x", c.name, size, crc, len(want), crc32.ChecksumIEEE(want))
		}
	}
}
