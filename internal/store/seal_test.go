package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"privacy3d/internal/dataset"
)

// refLess is the reference order of numeric dictionary entries, written
// with float comparisons rather than orderKey: numbers by value, −0
// before +0, then NaNs by bit pattern.
func refLess(a, b float64) bool {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return math.Float64bits(a) < math.Float64bits(b)
	case an || bn:
		return bn
	case a != b:
		return a < b
	}
	return math.Signbit(a) && !math.Signbit(b)
}

// refDictCol is the reference dictionary-coded column: rows
// comparison-sorted by value in less order, then by row; one dictionary
// entry per distinct bit pattern; perm the sorted rows and start where
// each entry's rows begin.
func refDictCol[T float64 | uint32](col []T, less func(a, b T) bool, nan func(T) bool) dictCol[T] {
	order := make([]int, len(col))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return less(col[order[a]], col[order[b]]) })
	c := dictCol[T]{dict: []T{}, codes: make([]uint16, len(col)), start: []uint16{}, perm: make([]uint16, len(col))}
	for k, r := range order {
		if k == 0 || less(col[order[k-1]], col[r]) {
			c.dict = append(c.dict, col[r])
			c.start = append(c.start, uint16(k))
		}
		c.codes[r] = uint16(len(c.dict) - 1)
		c.perm[k] = uint16(r)
	}
	c.nanFrom = len(c.dict)
	for k := len(c.dict) - 1; k >= 0 && nan(c.dict[k]); k-- {
		c.nanFrom = k
	}
	return c
}

func refNumCol(col []float64) dictCol[float64] {
	return refDictCol(col, refLess, math.IsNaN)
}

func refCatCol(col []uint32) dictCol[uint32] {
	return refDictCol(col, func(a, b uint32) bool { return a < b }, func(uint32) bool { return false })
}

// refZone is the reference zone map of a numeric column, as zone maps
// have always been defined: over the non-NaN rows sorted by value (−0
// equal to +0) and then by row, the values of the first and the last.
func refZone(col []float64) zone {
	var rows []int
	for i, v := range col {
		if !math.IsNaN(v) {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		return emptyZone
	}
	sort.SliceStable(rows, func(a, b int) bool { return col[rows[a]] < col[rows[b]] })
	return zone{col[rows[0]], col[rows[len(rows)-1]]}
}

// sameCol reports where two columns differ, bit for bit, or "".
func sameCol[T float64 | uint32](got, want *dictCol[T]) string {
	switch {
	case !bytes.Equal(sliceBytes(got.dict), sliceBytes(want.dict)) || len(got.dict) != len(want.dict):
		return "dict"
	case !slices.Equal(got.codes, want.codes):
		return "codes"
	case !slices.Equal(got.start, want.start):
		return "start"
	case !slices.Equal(got.perm, want.perm):
		return "perm"
	case got.nanFrom != want.nanFrom:
		return fmt.Sprintf("nanFrom %d, want %d", got.nanFrom, want.nanFrom)
	}
	return ""
}

// sameSegData reports where two segments differ, bit for bit, or "".
func sameSegData(got, want *segData) string {
	if got.n != want.n || len(got.nums) != len(want.nums) || len(got.cats) != len(want.cats) {
		return fmt.Sprintf("%d rows %d/%d columns, want %d rows %d/%d", got.n, len(got.nums), len(got.cats), want.n, len(want.nums), len(want.cats))
	}
	for j := range got.nums {
		if d := sameCol(&got.nums[j], &want.nums[j]); d != "" {
			return fmt.Sprintf("numeric column %d: %s", j, d)
		}
		if d := sameCol(&got.cats[j], &want.cats[j]); d != "" {
			return fmt.Sprintf("categorical column %d: %s", j, d)
		}
	}
	return ""
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
		{"nanPayloads", func(i int) float64 {
			return []float64{math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8dead0000beef), nan,
				3, negZero, math.Float64frombits(0x7ff0000000000001), 0}[i%7]
		}},
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

// TestIndexBuildMatchesComparisonSort pins the radix-built dictionaries
// and the counting-pass index to a comparison-sort reference: the same
// dict bit for bit (−0, +0 and NaN payloads distinct), codes, start, perm
// and NaN boundary, and zone ends bit for bit equal to the zone maps'
// row-order definition. All columns of one length go through one
// buildSegData, so the sorter's scratch is reused across columns of
// different key counts.
func TestIndexBuildMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{0, 1, 63, 64, DefaultSegmentSize, MaxSegmentSize} {
		names, nums, cats := indexColumns(n, rng)
		d := buildSegData(nums, cats)
		for j, name := range names {
			if nums[j] != nil {
				want := refNumCol(nums[j])
				if diff := sameCol(&d.nums[j], &want); diff != "" {
					t.Errorf("n=%d %s: %s differs from the comparison sort", n, name, diff)
				}
				if got, want := numZone(&d.nums[j]), refZone(nums[j]); !got.identical(want) {
					t.Errorf("n=%d %s: zone [%g, %g], want [%g, %g]", n, name, got.min, got.max, want.min, want.max)
				}
				continue
			}
			want := refCatCol(cats[j])
			if diff := sameCol(&d.cats[j], &want); diff != "" {
				t.Errorf("n=%d %s: categorical %s differs from the comparison sort", n, name, diff)
			}
		}
	}
}

// encodeBlockRef is the reference block encoder: the formats of disk.go
// written one value at a time into memory, with the CRC taken over the
// finished body. With seg nil it writes the first rows rows of nums/cats
// as a tail block; otherwise it writes seg as a SEG v3 segment.
func encodeBlockRef(base, rows int, nums [][]float64, cats [][]uint32, seg *segData) []byte {
	le := binary.LittleEndian
	magic := tailMagic
	ncols := len(nums)
	if seg != nil {
		magic, rows, ncols = segMagic, seg.n, len(seg.nums)
	}
	b := []byte(magic)
	b = le.AppendUint32(b, uint32(ncols))
	b = le.AppendUint32(b, uint32(rows))
	b = le.AppendUint64(b, uint64(base))
	f64s := func(vs []float64) {
		for _, v := range vs {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	u32s := func(vs []uint32) {
		for _, v := range vs {
			b = le.AppendUint32(b, v)
		}
	}
	for j := 0; j < ncols; j++ {
		switch {
		case seg != nil && seg.nums[j].codes != nil:
			c := &seg.nums[j]
			b = append(b, tagNumeric)
			b = le.AppendUint32(b, uint32(len(c.dict)))
			f64s(c.dict)
			for _, k := range c.codes {
				b = le.AppendUint16(b, k)
			}
		case seg != nil:
			c := &seg.cats[j]
			b = append(b, tagCategorical)
			b = le.AppendUint32(b, uint32(len(c.dict)))
			u32s(c.dict)
			for _, k := range c.codes {
				b = le.AppendUint16(b, k)
			}
		case nums[j] != nil:
			b = append(b, tagNumeric)
			f64s(nums[j][:rows])
		default:
			b = append(b, tagCategorical)
			u32s(cats[j][:rows])
		}
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// schemaOf is a schema whose kinds follow the non-nil columns.
func schemaOf(nums [][]float64) []dataset.Attribute {
	attrs := make([]dataset.Attribute, len(nums))
	for j := range nums {
		attrs[j] = dataset.Attribute{Name: fmt.Sprintf("c%d", j), Role: dataset.QuasiIdentifier, Kind: dataset.Nominal}
		if nums[j] != nil {
			attrs[j].Kind = dataset.Numeric
		}
	}
	return attrs
}

// TestBlockFilesMatchPerValueEncoder pins the bytes writeSegFile and
// writeTailFile put on disk, and the CRC they report, to the per-value
// reference encoder: for a SEG v3 segment of MaxSegmentSize rows, a full
// default segment, and TAIL blocks of 1 and of 100 rows cut out of longer
// buffers, as the open tail's are — through the bulk write and through
// the per-value fallback of a big-endian host.
func TestBlockFilesMatchPerValueEncoder(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		name    string
		n, rows int
		seg     bool
		base    int
	}{
		{name: "segMax", n: MaxSegmentSize, seg: true, base: 1 << 33},
		{name: "segDefault", n: DefaultSegmentSize, seg: true, base: 5 * DefaultSegmentSize},
		{name: "tail1", n: DefaultSegmentSize, rows: 1, base: 64},
		{name: "tail100", n: DefaultSegmentSize, rows: 100, base: 3 * DefaultSegmentSize},
	} {
		_, nums, cats := indexColumns(c.n, rng)
		var seg *segData
		if c.seg {
			seg = buildSegData(nums, cats)
		}
		want := encodeBlockRef(c.base, c.rows, nums, cats, seg)
		for _, bulk := range []bool{true, false} {
			var size int64
			var crc uint32
			var err error
			write := func() {
				if c.seg {
					size, crc, err = writeSegFile(dir, c.name, c.base, schemaOf(nums), seg)
				} else {
					size, crc, err = writeTailFile(dir, c.name, c.base, c.rows, nums, cats)
				}
			}
			if bulk {
				write()
			} else {
				withPerValueCodec(write)
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, c.name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				at := 0
				for at < min(len(got), len(want)) && got[at] == want[at] {
					at++
				}
				t.Errorf("%s (bulk %v): %d bytes differ from the %d-byte reference from byte %d", c.name, bulk, len(got), len(want), at)
			}
			if size != int64(len(want)) || crc != crc32.ChecksumIEEE(want) {
				t.Errorf("%s (bulk %v): reported size %d crc %08x, want %d %08x", c.name, bulk, size, crc, len(want), crc32.ChecksumIEEE(want))
			}
		}
	}
}
