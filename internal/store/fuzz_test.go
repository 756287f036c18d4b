package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"privacy3d/internal/dataset"
)

// fuzzAttrs is the schema the segment decoder is fuzzed against.
var fuzzAttrs = []dataset.Attribute{
	{Name: "x", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
	{Name: "c", Role: dataset.QuasiIdentifier, Kind: dataset.Nominal},
	{Name: "y", Role: dataset.Confidential, Kind: dataset.Numeric},
}

// fuzzSegment seals one 128-row segment of fuzzAttrs (NaN, ±Inf and
// duplicate values included) in a fresh directory and returns its v2 file.
func fuzzSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	s, err := Create(dir, fuzzAttrs, Options{SegmentSize: 128})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		x := float64(i % 23)
		switch i % 31 {
		case 0:
			x = math.NaN()
		case 1:
			x = math.Inf(-1)
		case 2:
			x = math.Inf(1)
		}
		if err := s.Append(x, []string{"a", "b", "c"}[i%3], float64(i)/4); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, segFileName(0)))
	if err != nil {
		f.Fatal(err)
	}
	return buf
}

// FuzzDecodeSegment drives the sealed-segment decoder with arbitrary
// bytes: it must never panic, and any segment it accepts must have every
// index in range, so evaluating a plan over it cannot panic either.
func FuzzDecodeSegment(f *testing.F) {
	v2 := fuzzSegment(f)
	_, d, err := decodeBlock(&blockReader{buf: v2, name: "seed"}, fuzzAttrs, true)
	if err != nil {
		f.Fatal(err)
	}
	v1 := encodeSegV1(f, 0, d)
	for _, seed := range [][]byte{v2, v1} {
		f.Add(seed)
		for _, cut := range []int{len(seed) - 1, len(seed) - 5, len(seed) / 2, 40, 8} {
			f.Add(seed[:cut])
		}
	}
	f.Add([]byte{})
	// Out-of-range row indexes in column x's perm and nan blocks, which
	// follow the 24-byte header, the tag, the values and permLen.
	permAt := 24 + 1 + 8*d.n + 4
	nanAt := permAt + 4*len(d.nidx[0].perm)
	for _, at := range []int{permAt, nanAt} {
		bad := append([]byte(nil), v2...)
		binary.LittleEndian.PutUint32(bad[at:], uint32(d.n))
		f.Add(bad)
	}
	plans := []*plan{
		{ivs: []numInterval{{col: 0, lo: 3, loIncl: true, hi: 9, hiIncl: false}}},
		{ivs: []numInterval{{col: 2, lo: math.Inf(-1), loIncl: true, hi: 10, hiIncl: true}},
			rest: []compiledCond{{col: 1, op: Eq, code: 1, codeOK: true}, {numeric: true, col: 0, op: Ne, v: 5}}},
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		_, d, err := decodeBlock(&blockReader{buf: buf, name: "fuzz"}, fuzzAttrs, true)
		if err != nil {
			return
		}
		inRange := func(what string, j int, rows []uint32) {
			for _, r := range rows {
				if int(r) >= d.n {
					t.Fatalf("column %d %s entry %d out of range (rows %d)", j, what, r, d.n)
				}
			}
		}
		for j, a := range fuzzAttrs {
			if a.Kind == dataset.Numeric {
				ni := &d.nidx[j]
				inRange("perm", j, ni.perm)
				inRange("nan", j, ni.nan)
				if len(ni.perm)+len(ni.nan) != d.n {
					t.Fatalf("column %d: perm %d + nan %d rows, segment %d rows", j, len(ni.perm), len(ni.nan), d.n)
				}
				continue
			}
			ci := &d.cidx[j]
			inRange("perm", j, ci.perm)
			if len(ci.perm) != d.n {
				t.Fatalf("column %d: perm %d rows, segment %d rows", j, len(ci.perm), d.n)
			}
		}
		words, scratch := make([]uint64, (d.n+63)/64), make([]uint64, (d.n+63)/64)
		for _, p := range plans {
			zeroWords(words)
			d.eval(p, words, scratch)
		}
	})
}

// fuzzTails writes TAIL blocks of fuzzAttrs with the block writer: empty,
// one row, and 40 rows holding NaN, −0, ±Inf and codes never used before
// in the tail, as freshly interned dictionary entries are.
func fuzzTails(f *testing.F) [][]byte {
	f.Helper()
	dir := f.TempDir()
	negZero, nan := math.Copysign(0, -1), math.NaN()
	x, y := make([]float64, 40), make([]float64, 40)
	c := make([]uint32, 40)
	for i := range x {
		x[i] = []float64{nan, negZero, 0, math.Inf(1), math.Inf(-1), float64(i)}[i%6]
		y[i] = float64(i) / 3
		c[i] = []uint32{0, 1, 2, 9, 1 << 20}[i%5]
	}
	var out [][]byte
	for _, rows := range []int{0, 1, 40} {
		name := fmt.Sprintf("TAIL-%d", rows)
		if _, _, err := writeBlockFile(dir, name, 3*128, rows, [][]float64{x, nil, y}, [][]uint32{nil, c, nil}, nil); err != nil {
			f.Fatal(err)
		}
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, buf)
	}
	return out
}

// FuzzDecodeTail drives the tail decoder with arbitrary bytes: it must
// never panic, and a tail it accepts must re-encode to the bytes it was
// decoded from. The decoder leaves the CRC footer to Open's validation,
// so a tail with a flipped footer decodes to the same columns.
func FuzzDecodeTail(f *testing.F) {
	for _, tail := range fuzzTails(f) {
		f.Add(tail)
		for _, cut := range []int{len(tail) - 1, len(tail) - 4, len(tail) - 5, 25, 24, 8, 3} {
			if cut >= 0 && cut < len(tail) {
				f.Add(tail[:cut])
			}
		}
		flipped := append([]byte(nil), tail...)
		flipped[len(flipped)-1] ^= 0x40
		f.Add(flipped)
	}
	f.Add(fuzzSegment(f)) // a segment is no tail
	f.Fuzz(func(t *testing.T, buf []byte) {
		base, d, err := decodeBlock(&blockReader{buf: buf, name: "fuzz"}, fuzzAttrs, false)
		if err != nil {
			return
		}
		for j, a := range fuzzAttrs {
			numeric := a.Kind == dataset.Numeric
			if numeric && (len(d.nums[j]) != d.n || d.cats[j] != nil) || !numeric && (len(d.cats[j]) != d.n || d.nums[j] != nil) {
				t.Fatalf("column %d decoded to %d numeric and %d categorical values, tail has %d rows", j, len(d.nums[j]), len(d.cats[j]), d.n)
			}
		}
		body := buf[:len(buf)-4]
		if re := encodeBlockRef(base, d.n, d.nums, d.cats, nil); !bytes.Equal(re[:len(re)-4], body) {
			t.Fatalf("accepted tail re-encodes to different bytes")
		}
	})
}
