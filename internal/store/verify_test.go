package store

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privacy3d/internal/dataset"
)

// verifyQuery touches every sealed segment: scatter acquires each one.
var verifyQuery = []Cond{{Col: "height", Op: Ge, V: 150}, {Col: "height", Op: Lt, V: 180}}

// openCapped reopens dir with a 1-byte resident cap, so at most one
// segment is ever resident and the rest stay spilled.
func openCapped(t *testing.T, dir string) *Store {
	t.Helper()
	r, err := Open(dir, Options{MemCap: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return r
}

// wantUnreadable fails unless err is an ErrUnreadable that names file and
// says says.
func wantUnreadable(t *testing.T, what string, err error, file, says string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s over a corrupt %s: no error", what, file)
	}
	if !errors.Is(err, ErrUnreadable) || !strings.Contains(err.Error(), file) || !strings.Contains(err.Error(), says) {
		t.Fatalf("%s over a corrupt %s: error %q, want an ErrUnreadable naming the file and saying %q", what, file, err, says)
	}
}

// wantEveryEvalFails checks that Eval, EvalScan and EvalBatch over the
// snapshot all fail naming file and saying says, and return no bitmap —
// with conditions and without (a query with no WHERE clause reads every
// segment too).
func wantEveryEvalFails(t *testing.T, snap *Snapshot, file, says string) {
	t.Helper()
	for _, q := range [][]Cond{verifyQuery, nil} {
		bm, err := snap.Eval(q)
		wantUnreadable(t, "Eval", err, file, says)
		if bm != nil {
			t.Fatalf("Eval(%v) over a corrupt %s returned a bitmap", q, file)
		}
		bm, err = snap.EvalScan(q)
		wantUnreadable(t, "EvalScan", err, file, says)
		if bm != nil {
			t.Fatalf("EvalScan(%v) over a corrupt %s returned a bitmap", q, file)
		}
	}
	for _, batch := range [][][]Cond{{verifyQuery, {{Col: "weight", Op: Gt, V: 70}}}, {nil}} {
		bms, err := snap.EvalBatch(batch)
		wantUnreadable(t, "EvalBatch", err, file, says)
		if bms != nil {
			t.Fatalf("EvalBatch(%v) over a corrupt %s returned bitmaps", batch, file)
		}
	}
}

// TestSwappedRowCodesFailEvalNotOpen swaps two different row codes of a
// committed SEG v3 segment file, keeping its size: the file still decodes
// (every code names an entry, every entry keeps a row) and its zone ends
// do not move, so only the checksum can catch it.
func TestSwappedRowCodesFailEvalNotOpen(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	name := segFileName(1)
	buf, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	// Column 0 (height): 24-byte header, tag, ndict, dict, then codes.
	ndict := int(binary.LittleEndian.Uint32(buf[25:]))
	codesAt := 24 + 1 + 4 + 8*ndict
	a := codesAt + 2*100
	b := a + 2
	for binary.LittleEndian.Uint16(buf[b:]) == binary.LittleEndian.Uint16(buf[a:]) {
		b += 2
	}
	swapFailsEveryQuery(t, dir, name, a, b, 2)
}

// swapFailsEveryQuery swaps the width-byte entries at offsets a and b of
// segment file name, checks that the swapped file still decodes, then
// reopens dir capped and checks that Open recovers every row and every
// query over the file fails naming it, twice (a failed segment is not
// promoted, so the next query verifies the file again).
func swapFailsEveryQuery(t *testing.T, dir, name string, a, b, width int) {
	t.Helper()
	path := filepath.Join(dir, name)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ea := append([]byte(nil), buf[a:a+width]...)
	copy(buf[a:a+width], buf[b:b+width])
	copy(buf[b:b+width], ea)
	if _, _, err := decodeSegment(&blockReader{buf: buf, name: name}, persistDataset(t, 1).Attrs()); err != nil {
		t.Fatalf("the swapped file no longer decodes, so the test would not need the checksum: %v", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openCapped(t, dir)
	defer r.Close()
	if r.Rows() != persistTestRows {
		t.Fatalf("Open recovered %d rows, want all %d: a same-size corrupt segment must not roll back the commit", r.Rows(), persistTestRows)
	}
	wantEveryEvalFails(t, r.Snapshot(), name, "checksum")
	wantEveryEvalFails(t, r.Snapshot(), name, "checksum")
}

// TestBitFlipAfterOpenFailsEvalUntilRestored flips one byte of a spilled
// segment file under a live store: queries that read it fail naming the
// file, and once the file is restored — a good copy renamed over it, so
// the store's open handle still points at the corrupt one — the same
// store answers exactly as before.
func TestBitFlipAfterOpenFailsEvalUntilRestored(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	want := queryFingerprint(t, s.Snapshot())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := openCapped(t, dir)
	defer r.Close()

	name := segFileName(2)
	path := filepath.Join(dir, name)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, 24+1+4+8*3) // a height dictionary entry
	wantEveryEvalFails(t, r.Snapshot(), name, "checksum")
	func() {
		defer func() {
			err, _ := recover().(error)
			wantUnreadable(t, "Materialize", err, name, "checksum")
		}()
		r.Snapshot().Materialize()
	}()

	if err := os.WriteFile(path+".good", good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".good", path); err != nil {
		t.Fatal(err)
	}
	if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
		t.Fatalf("answers after restoring %s differ from the store that wrote it", name)
	}
}

// flipByte flips the low bit of the byte at off of path.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 1}, off); err != nil {
		t.Fatal(err)
	}
}

// withPerValueCodec runs fn with the bulk copies of readSlice and
// putSlice switched off, so they take the per-value fallback.
func withPerValueCodec(fn func()) {
	saved := hostLittleEndian
	hostLittleEndian = false
	defer func() { hostLittleEndian = saved }()
	fn()
}

// TestBulkDecodeMatchesPerValue pins that the bulk copy decode and the
// per-value decode give bit-identical values: NaN payloads, −0, ±Inf,
// subnormals and random bit patterns, at lengths 0, 1 and 8192; and that a
// whole segment file decodes to the same columns and row IDs either way.
func TestBulkDecodeMatchesPerValue(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	special := []uint64{
		0x7ff8000000000000, 0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001, // NaNs with payloads, quiet and signalling
		math.Float64bits(math.Copysign(0, -1)), 0,
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		1, 0x000fffffffffffff, 0x800fffffffffffff, // subnormals
		math.Float64bits(math.MaxFloat64), math.Float64bits(-math.SmallestNonzeroFloat64),
	}
	for _, n := range []int{0, 1, 8192} {
		raw := make([]byte, n*8+4) // room for the CRC footer take never reads
		for i := 0; i < n; i++ {
			v := rng.Uint64()
			if i%3 == 0 {
				v = special[(i/3)%len(special)]
			}
			binary.LittleEndian.PutUint64(raw[i*8:], v)
		}
		var bulkF, slowF []float64
		var bulkU, slowU []uint32
		decode := func(f *[]float64, u *[]uint32) {
			var err error
			if *f, err = readSlice[float64](&blockReader{buf: raw}, n); err != nil {
				t.Fatal(err)
			}
			if *u, err = readSlice[uint32](&blockReader{buf: raw}, 2*n); err != nil {
				t.Fatal(err)
			}
		}
		decode(&bulkF, &bulkU)
		withPerValueCodec(func() { decode(&slowF, &slowU) })
		if len(bulkF) != n || len(slowF) != n || len(bulkU) != 2*n || len(slowU) != 2*n {
			t.Fatalf("n=%d: decoded lengths %d/%d f64, %d/%d u32", n, len(bulkF), len(slowF), len(bulkU), len(slowU))
		}
		for i := range bulkF {
			if math.Float64bits(bulkF[i]) != math.Float64bits(slowF[i]) || math.Float64bits(slowF[i]) != binary.LittleEndian.Uint64(raw[i*8:]) {
				t.Fatalf("n=%d: f64 %d decodes to %016x bulk, %016x per value, file holds %016x", n, i,
					math.Float64bits(bulkF[i]), math.Float64bits(slowF[i]), binary.LittleEndian.Uint64(raw[i*8:]))
			}
		}
		for i := range bulkU {
			if bulkU[i] != slowU[i] || slowU[i] != binary.LittleEndian.Uint32(raw[i*4:]) {
				t.Fatalf("n=%d: u32 %d decodes to %08x bulk, %08x per value", n, i, bulkU[i], slowU[i])
			}
		}
	}

	seg, attrs := zoneSegmentFile(t)
	_, bulk, err := decodeSegment(&blockReader{buf: seg, name: "seg"}, attrs)
	if err != nil {
		t.Fatal(err)
	}
	var slow *segData
	withPerValueCodec(func() {
		_, slow, err = decodeSegment(&blockReader{buf: seg, name: "seg"}, attrs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameSegData(slow, bulk); diff != "" {
		t.Fatalf("the segment decodes differently through the bulk and per-value paths: %s", diff)
	}
}

// zoneSegmentFile returns the bytes of the first sealed segment of
// zoneEdgeStore (−0, ±Inf and NaN values, a categorical column) and the
// store's schema.
func zoneSegmentFile(t *testing.T) ([]byte, []dataset.Attribute) {
	t.Helper()
	dir := t.TempDir()
	s := zoneEdgeStore(t, dir, Options{})
	attrs := s.Snapshot().Attrs()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, segFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	return buf, attrs
}
