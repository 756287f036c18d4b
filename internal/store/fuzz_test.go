package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"privacy3d/internal/dataset"
)

// fuzzAttrs is the schema the segment decoder is fuzzed against.
var fuzzAttrs = []dataset.Attribute{
	{Name: "x", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
	{Name: "c", Role: dataset.QuasiIdentifier, Kind: dataset.Nominal},
	{Name: "y", Role: dataset.Confidential, Kind: dataset.Numeric},
}

// fuzzSegment seals one 128-row segment of fuzzAttrs (NaN payloads, −0,
// ±Inf and duplicate values included) in a fresh directory and returns
// its SEG v3 file.
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
		case 3:
			x = math.Float64frombits(0xfff8dead0000beef) // a negative NaN payload
		case 4:
			x = math.Copysign(0, -1)
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

// reCRC rewrites a block's CRC footer to match its body, so a hostile
// edit reaches the decoder's structural checks.
func reCRC(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc32.ChecksumIEEE(buf[:len(buf)-4]))
	return buf
}

// FuzzDecodeSegment drives the sealed-segment decoder with arbitrary
// bytes: it must never panic, any segment it accepts must hold a valid
// index — every code naming a dictionary entry, perm a permutation of
// the rows ordered by code then row, start where each code's rows begin —
// so evaluating a plan over it cannot panic either, and an accepted SEG
// v3 file must re-encode to its own bytes. The seeds include a v3 file,
// the same file under the SEG v2 and v1 magics (formats no longer read,
// which must fail with an error), their truncations, and hostile v3
// files that must fail with an error: an unsorted dictionary, a duplicate
// bit pattern, a code past the dictionary, a NaN entry before a number,
// and a column cut short.
func FuzzDecodeSegment(f *testing.F) {
	v3 := fuzzSegment(f)
	_, d, err := decodeSegment(&blockReader{buf: v3, name: "seed"}, fuzzAttrs)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{v3}
	for _, magic := range []string{"P3DSEG02", "P3DSEG01"} {
		old := reCRC(append([]byte(magic), v3[len(magic):]...))
		if _, _, err := decodeSegment(&blockReader{buf: old, name: magic}, fuzzAttrs); err == nil {
			f.Fatalf("a %s segment decodes", magic)
		}
		seeds = append(seeds, old)
	}
	for _, seed := range seeds {
		f.Add(seed)
		for _, cut := range []int{len(seed) - 1, len(seed) - 5, len(seed) / 2, 40, 8} {
			f.Add(seed[:cut])
		}
	}
	f.Add([]byte{})
	// Column x: 24-byte header, tag, ndict, dict, then 128 codes.
	nx := len(d.nums[0].dict)
	dictAt, codesAt := 24+1+4, 24+1+4+8*nx
	le := binary.LittleEndian
	hostile := []struct {
		name string
		edit func(b []byte)
	}{
		{"an unsorted dictionary", func(b []byte) {
			x, y := le.Uint64(b[dictAt:]), le.Uint64(b[dictAt+8:])
			le.PutUint64(b[dictAt:], y)
			le.PutUint64(b[dictAt+8:], x)
		}},
		{"a duplicate bit pattern", func(b []byte) { copy(b[dictAt+8:dictAt+16], b[dictAt:dictAt+8]) }},
		{"a code past the dictionary", func(b []byte) { le.PutUint16(b[codesAt+2*5:], uint16(nx)) }},
		{"a NaN entry before a number", func(b []byte) { le.PutUint64(b[dictAt:], math.Float64bits(math.NaN())) }},
		{"an entry no row uses", func(b []byte) {
			for i := 0; i < d.n; i++ {
				if le.Uint16(b[codesAt+2*i:]) == 1 {
					le.PutUint16(b[codesAt+2*i:], 0)
				}
			}
		}},
	}
	for _, h := range hostile {
		bad := append([]byte(nil), v3...)
		h.edit(bad)
		if _, _, err := decodeSegment(&blockReader{buf: bad, name: "hostile"}, fuzzAttrs); err == nil {
			f.Fatalf("a segment with %s decodes", h.name)
		}
		f.Add(reCRC(bad))
	}
	// A column cut short: the file ends inside column x's codes.
	short := reCRC(append(append([]byte(nil), v3[:codesAt+2*64]...), 0, 0, 0, 0))
	if _, _, err := decodeSegment(&blockReader{buf: short, name: "short"}, fuzzAttrs); err == nil {
		f.Fatalf("a segment cut inside a column decodes")
	}
	f.Add(short)
	plans := []*plan{
		{ivs: []numInterval{{col: 0, lo: 3, loIncl: true, hi: 9, hiIncl: false}}},
		{ivs: []numInterval{{col: 2, lo: math.Inf(-1), loIncl: true, hi: 10, hiIncl: true}},
			rest: []compiledCond{{col: 1, op: Eq, code: 1, codeOK: true}, {numeric: true, col: 0, op: Ne, v: 5}}},
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		base, d, err := decodeSegment(&blockReader{buf: buf, name: "fuzz"}, fuzzAttrs)
		if err != nil {
			return
		}
		for j, a := range fuzzAttrs {
			var diff string
			if a.Kind == dataset.Numeric {
				diff = checkIndex(&d.nums[j], d.n)
			} else {
				diff = checkIndex(&d.cats[j], d.n)
			}
			if diff != "" {
				t.Fatalf("column %d: %s", j, diff)
			}
		}
		words, scratch := make([]uint64, (d.n+63)/64), make([]uint64, (d.n+63)/64)
		for _, p := range plans {
			zeroWords(words)
			d.eval(p, words, scratch)
		}
		if string(buf[:8]) == segMagic {
			if re := encodeBlockRef(base, 0, nil, nil, d); !bytes.Equal(re[:len(re)-4], buf[:len(buf)-4]) {
				t.Fatalf("accepted SEG v3 file re-encodes to different bytes")
			}
		}
	})
}

// checkIndex reports how a decoded column's index is invalid, or "".
func checkIndex[T float64 | uint32](c *dictCol[T], n int) string {
	if len(c.codes) != n || len(c.perm) != n || len(c.start) != len(c.dict) || c.nanFrom > len(c.dict) {
		return fmt.Sprintf("%d codes, %d perm, %d start, %d dict entries, nanFrom %d, %d rows", len(c.codes), len(c.perm), len(c.start), len(c.dict), c.nanFrom, n)
	}
	for k := 0; k < len(c.dict); k++ {
		rows := c.perm[c.pos(k):c.pos(k+1)]
		if len(rows) == 0 {
			return fmt.Sprintf("code %d has no row", k)
		}
		for i, r := range rows {
			if int(r) >= n || int(c.codes[r]) != k || i > 0 && r <= rows[i-1] {
				return fmt.Sprintf("code %d: perm entry %d (row %d) out of order", k, i, r)
			}
		}
	}
	return ""
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
		if _, _, err := writeTailFile(dir, name, 3*128, rows, [][]float64{x, nil, y}, [][]uint32{nil, c, nil}); err != nil {
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
		base, rows, nums, cats, err := decodeTail(&blockReader{buf: buf, name: "fuzz"}, fuzzAttrs)
		if err != nil {
			return
		}
		for j, a := range fuzzAttrs {
			numeric := a.Kind == dataset.Numeric
			if numeric && (len(nums[j]) != rows || cats[j] != nil) || !numeric && (len(cats[j]) != rows || nums[j] != nil) {
				t.Fatalf("column %d decoded to %d numeric and %d categorical values, tail has %d rows", j, len(nums[j]), len(cats[j]), rows)
			}
		}
		body := buf[:len(buf)-4]
		if re := encodeBlockRef(base, rows, nums, cats, nil); !bytes.Equal(re[:len(re)-4], body) {
			t.Fatalf("accepted tail re-encodes to different bytes")
		}
	})
}

// fuzzStoreFiles writes a small durable store of the trial schema — two
// sealed segments, a tail and a categorical column, so the manifest holds
// segments, zones and a tail, and DICT holds entries — and returns its
// newest manifest file and its DICT file.
func fuzzStoreFiles(f *testing.F) (man, dict []byte) {
	f.Helper()
	dir := f.TempDir()
	d, err := dataset.Synth("trial", 2*64+9, 7)
	if err != nil {
		f.Fatal(err)
	}
	s, err := CreateFromDataset(dir, d, Options{SegmentSize: 64})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seqs, err := listManifests(dir)
	if err != nil || len(seqs) == 0 {
		f.Fatalf("listManifests: %v (%d found)", err, len(seqs))
	}
	if man, err = os.ReadFile(filepath.Join(dir, manifestFileName(seqs[0]))); err != nil {
		f.Fatal(err)
	}
	if dict, err = os.ReadFile(filepath.Join(dir, dictFileName)); err != nil {
		f.Fatal(err)
	}
	return man, dict
}

// addCorruptions seeds f with buf, truncated copies of it, and copies
// with the last byte (a manifest's CRC footer) and a middle byte flipped.
func addCorruptions(f *testing.F, buf []byte) {
	f.Add(buf)
	for _, cut := range []int{len(buf) - 1, len(buf) - 4, len(buf) - 5, len(buf) / 2, 12, 8, 1} {
		if cut >= 0 && cut < len(buf) {
			f.Add(buf[:cut])
		}
	}
	for _, at := range []int{len(buf) - 1, len(buf) / 2} {
		if at >= 0 {
			flipped := append([]byte(nil), buf...)
			flipped[at] ^= 0x40
			f.Add(flipped)
		}
	}
}

// FuzzDecodeManifest drives the manifest decoder with arbitrary bytes: it
// may not panic, and Open's zone validation must not panic on whatever it
// accepts. A manifest that decodes must be exactly the writer's encoding
// of what it decodes to, and the writer's encoding of any accepted
// manifest must decode back to one with the same encoding, so whatever a
// commit writes is what Open reads. The seeds include manifests of the
// P3DMAN01 layout, which is no longer read: each must fail with an error.
func FuzzDecodeManifest(f *testing.F) {
	man, _ := fuzzStoreFiles(f)
	m, err := decodeManifest(man)
	if err != nil || len(m.Segments) != 2 || m.Tail == nil || m.DictLen == 0 {
		f.Fatalf("seed manifest: %+v, %v", m, err)
	}
	v1 := p3dman01(f, m)
	if _, err := decodeManifest(v1); err == nil {
		f.Fatalf("a P3DMAN01 manifest decodes")
	}
	for _, seed := range [][]byte{man, v1} {
		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)-1] ^= 0x40
		if _, err := decodeManifest(flipped); err == nil {
			f.Fatalf("a %s manifest whose CRC footer is flipped decodes", seed[:len(manifestMagic)])
		}
		addCorruptions(f, seed)
	}
	f.Add([]byte{})
	for _, payload := range []string{
		`{"segments":[{"file":"x","zones":[]}]}`,
		`{"seg_size":0,"shards":16,"segments":[]}`, // a size no store seals
	} {
		raw := binary.LittleEndian.AppendUint32([]byte("P3DMAN01"), uint32(len(payload)))
		raw = binary.LittleEndian.AppendUint32(append(raw, payload...), crc32.ChecksumIEEE([]byte(payload)))
		f.Add(raw)
	}
	m.SegSize = 0
	m.Tail = nil
	if raw, err := encodeManifest(m); err == nil {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeManifest(raw)
		if err != nil {
			return
		}
		if err := checkSegmentSize(m.SegSize); err == nil && (m.SegSize%64 != 0 || m.SegSize < 64 || m.SegSize > MaxSegmentSize) {
			t.Fatalf("segment size %d accepted", m.SegSize)
		}
		for i := range m.Segments {
			_ = validateZones(&m.Segments[i])
		}
		re, err := encodeManifest(m)
		if err != nil || !bytes.Equal(re, raw) {
			t.Fatalf("an accepted manifest is not the writer's encoding of it (%v)", err)
		}
		m2, err := decodeManifest(re)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if re2, err := encodeManifest(m2); err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("the writer's manifest reads back as a different one (%v)", err)
		}
	})
}

// FuzzDecodeDict drives the DICT decoder with arbitrary bytes: it must
// never panic, and the entries it accepts, re-encoded as the writer does,
// must give back the input bytes.
func FuzzDecodeDict(f *testing.F) {
	_, dict := fuzzStoreFiles(f)
	if strs, err := decodeDict(dict); err != nil || len(strs) == 0 {
		f.Fatalf("seed DICT: %q, %v", strs, err)
	}
	addCorruptions(f, dict)
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})                   // an overlong zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // a length past the buffer
	f.Fuzz(func(t *testing.T, buf []byte) {
		strs, err := decodeDict(buf)
		if err != nil {
			return
		}
		var re []byte
		for _, str := range strs {
			re = binary.AppendUvarint(re, uint64(len(str)))
			re = append(re, str...)
		}
		if !bytes.Equal(re, buf) {
			t.Fatalf("%d accepted entries re-encode to different bytes", len(strs))
		}
	})
}

// buildLengths are the column lengths FuzzBuildSegData picks from: 0, 1,
// 63, and every multiple of 64 up to MaxSegmentSize.
var buildLengths = func() []int {
	ns := []int{0, 1, 63}
	for n := 64; n <= MaxSegmentSize; n += 64 {
		ns = append(ns, n)
	}
	return ns
}()

// buildColumns decodes fuzz bytes into one segment's columns of n rows:
// the bytes, cycled, as 8-byte words. x holds row i's word as a float64
// bit pattern, so NaN payloads, −0/+0, ±Inf and subnormals all occur; y
// is x with each cycle through the bytes flipping different low bits, so
// long columns get many distinct values; c holds the word's low 32 bits
// as a categorical code.
func buildColumns(n int, data []byte) (x, y []float64, c []uint32) {
	words := make([]uint64, (len(data)+7)/8)
	for i := range words {
		var w [8]byte
		copy(w[:], data[8*i:])
		words[i] = binary.LittleEndian.Uint64(w[:])
	}
	if len(words) == 0 {
		words = []uint64{0}
	}
	x, y, c = make([]float64, n), make([]float64, n), make([]uint32, n)
	for i := range x {
		w := words[i%len(words)]
		x[i] = math.Float64frombits(w)
		y[i] = math.Float64frombits(w ^ uint64(i/len(words)))
		c[i] = uint32(w)
	}
	return x, y, c
}

// FuzzBuildSegData checks the seal's dictionary build against the
// comparison-sort reference on fuzzed columns of every length a segment
// can have: each numeric column's dict (bit for bit), codes, start, perm
// and NaN boundary must be refNumCol's and its zone refZone's, and the
// categorical column must be refCatCol's.
func FuzzBuildSegData(f *testing.F) {
	negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	sub := math.SmallestNonzeroFloat64
	special := []float64{nan, negZero, 0, inf, -inf, sub, -sub, 1.5, -1.5,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8dead0000beef), math.Float64frombits(0x7ff0000000000001)}
	var seed []byte
	for _, v := range special {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	var heights []byte // values recorded at a fixed precision: few distinct
	for i := 0; i < 64; i++ {
		heights = binary.LittleEndian.AppendUint64(heights, math.Float64bits(150+float64(i%40)/2))
	}
	for _, n := range []int{0, 1, 63, 64, 128, DefaultSegmentSize, MaxSegmentSize} {
		sel := uint16(slices.Index(buildLengths, n))
		f.Add(sel, seed)
		f.Add(sel, heights)
	}
	f.Add(uint16(4), []byte{})
	f.Add(uint16(5), []byte{0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, sel uint16, data []byte) {
		n := buildLengths[int(sel)%len(buildLengths)]
		x, y, c := buildColumns(n, data)
		d := buildSegData([][]float64{x, nil, y}, [][]uint32{nil, c, nil})
		if d.n != n {
			t.Fatalf("%d rows, want %d", d.n, n)
		}
		for j, col := range [][]float64{x, nil, y} {
			if col == nil {
				continue
			}
			want := refNumCol(col)
			if diff := sameCol(&d.nums[j], &want); diff != "" {
				t.Fatalf("n=%d numeric column %d: %s differs from the comparison sort", n, j, diff)
			}
			if got, want := numZone(&d.nums[j]), refZone(col); !got.identical(want) {
				t.Fatalf("n=%d numeric column %d: zone [%g, %g], want [%g, %g]", n, j, got.min, got.max, want.min, want.max)
			}
		}
		want := refCatCol(c)
		if diff := sameCol(&d.cats[1], &want); diff != "" {
			t.Fatalf("n=%d categorical column: %s differs from the comparison sort", n, diff)
		}
	})
}
