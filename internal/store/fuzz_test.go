package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
// must never panic, Open's zone validation must not panic on whatever it
// accepts, and the writer's encoding of an accepted manifest must decode
// back to a manifest with the same encoding, so whatever a commit writes
// is what Open reads. (Encoding normalizes, for one: an empty zones array
// is omitted and reads back as none.)
func FuzzDecodeManifest(f *testing.F) {
	man, _ := fuzzStoreFiles(f)
	if m, err := decodeManifest(man); err != nil || len(m.Segments) != 2 || m.Tail == nil || m.DictLen == 0 {
		f.Fatalf("seed manifest: %+v, %v", m, err)
	}
	flipped := append([]byte(nil), man...)
	flipped[len(flipped)-1] ^= 0x40
	if _, err := decodeManifest(flipped); err == nil {
		f.Fatalf("a manifest whose CRC footer is flipped decodes")
	}
	addCorruptions(f, man)
	f.Add([]byte{})
	payload := []byte(`{"segments":[{"file":"x","zones":[]}]}`)
	raw := binary.LittleEndian.AppendUint32([]byte(manifestMagic), uint32(len(payload)))
	raw = binary.LittleEndian.AppendUint32(append(raw, payload...), crc32.ChecksumIEEE(payload))
	f.Add(raw)
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeManifest(raw)
		if err != nil {
			return
		}
		for i := range m.Segments {
			_ = validateZones(&m.Segments[i], len(m.Attrs))
		}
		re, err := encodeManifest(m)
		if err != nil {
			return // e.g. an attribute the schema cannot marshal
		}
		m2, err := decodeManifest(re)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if re2, err := encodeManifest(m2); err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("the writer's manifest reads back as a different one:\n%s\n%s (%v)", re, re2, err)
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
