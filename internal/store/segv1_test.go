package store

import (
	"bufio"
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"privacy3d/internal/dataset"
)

// encodeSegV1 renders a decoded segment in the v1 segment format, which
// followed every permutation with a sorted copy of the values it orders:
// permLen × f64 after a numeric perm, rows × u32 after a categorical one.
func encodeSegV1(t testing.TB, base int, d *segData) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	// Every write below lands in bw, whose only error would come from the
	// bytes.Buffer underneath, which never fails; Flush reports it anyway.
	cw := &crcWriter{w: bw}
	_ = cw.bytes([]byte(segMagicV1))
	_ = cw.u32(uint32(len(d.nums)))
	_ = cw.u32(uint32(d.n))
	_ = cw.u64(uint64(base))
	for j, col := range d.nums {
		if col != nil {
			ni := &d.nidx[j]
			sorted := make([]float64, len(ni.perm))
			for k, r := range ni.perm {
				sorted[k] = col[r]
			}
			_ = cw.u8(tagNumeric)
			_ = cw.f64s(col)
			_ = cw.u32(uint32(len(ni.perm)))
			_ = cw.u32s(ni.perm)
			_ = cw.f64s(sorted)
			_ = cw.u32s(ni.nan)
			continue
		}
		codes, ci := d.cats[j], &d.cidx[j]
		sorted := make([]uint32, len(ci.perm))
		for k, r := range ci.perm {
			sorted[k] = codes[r]
		}
		_ = cw.u8(tagCategorical)
		_ = cw.u32s(codes)
		_ = cw.u32s(ci.perm)
		_ = cw.u32s(sorted)
	}
	_ = cw.u32(cw.crc)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// downgradeToV1 rewrites every sealed segment file the newest manifest
// references in the v1 format and recommits the manifest with the new
// sizes and checksums, as a v1 writer would have left the directory. The
// decoded footprints grow by the sorted copies a v1 writer counted.
func downgradeToV1(t *testing.T, dir string) {
	t.Helper()
	rewriteNewestManifest(t, dir, func(m *manifest) {
		for i := range m.Segments {
			b := &m.Segments[i]
			path := filepath.Join(dir, b.File)
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			base, d, err := decodeBlock(&blockReader{buf: buf, name: b.File}, m.Attrs, true)
			if err != nil {
				t.Fatalf("decode %s: %v", b.File, err)
			}
			v1 := encodeSegV1(t, base, d)
			if err := os.WriteFile(path, v1, 0o644); err != nil {
				t.Fatal(err)
			}
			b.Size, b.CRC = int64(len(v1)), crc32.ChecksumIEEE(v1)
			for j := range d.nums {
				b.Decoded += int64(len(d.nidx[j].perm))*8 + int64(len(d.cidx[j].perm))*4
			}
		}
	})
}

// segFileMagic returns the magic of a segment file.
func segFileMagic(t *testing.T, dir string, ord int) string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(dir, segFileName(ord)))
	if err != nil {
		t.Fatal(err)
	}
	return string(buf[:len(segMagic)])
}

// TestV1SegmentFilesStillServe opens a directory whose sealed segments are
// all in the v1 format: it must answer byte-identically to the store that
// wrote it, resident or decoded on every acquire, and keep working once
// ingest seals v2 segments next to the v1 ones.
func TestV1SegmentFilesStillServe(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	want := queryFingerprint(t, s.Snapshot())
	wantMat := s.Snapshot().Materialize()
	v1Segs := len(s.Snapshot().segs)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	downgradeToV1(t, dir)
	for ord := 0; ord < v1Segs; ord++ {
		if got := segFileMagic(t, dir, ord); got != segMagicV1 {
			t.Fatalf("segment %d magic %q after downgrade", ord, got)
		}
	}

	for _, opts := range []Options{{}, {MemCap: 1}} {
		r, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open(%+v) over v1 segments: %v", opts, err)
		}
		if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
			t.Errorf("MemCap %d: answers from v1 segments differ", opts.MemCap)
		}
		if !dataset.EqualValues(r.Snapshot().Materialize(), wantMat) {
			t.Errorf("MemCap %d: rows from v1 segments differ", opts.MemCap)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}

	// Mixed directory: ingest seals v2 segments after the v1 ones.
	r, err := Open(dir, Options{MemCap: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r.AppendDataset(persistDataset(t, 2*persistSegSize)); err != nil {
		t.Fatalf("AppendDataset: %v", err)
	}
	all := r.Snapshot().Materialize()
	ref, err := FromDataset(all, persistSegSize)
	if err != nil {
		t.Fatal(err)
	}
	want = queryFingerprint(t, ref.Snapshot())
	if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
		t.Errorf("mixed v1/v2 store answers differ from a fresh build of its rows")
	}
	segs := len(r.Snapshot().segs)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if segs <= v1Segs {
		t.Fatalf("ingest sealed no new segment (%d segments)", segs)
	}
	for ord := 0; ord < segs; ord++ {
		wantMagic := segMagic
		if ord < v1Segs {
			wantMagic = segMagicV1
		}
		if got := segFileMagic(t, dir, ord); got != wantMagic {
			t.Errorf("segment %d magic %q, want %q", ord, got, wantMagic)
		}
	}
	r, err = Open(dir, Options{MemCap: 1})
	if err != nil {
		t.Fatalf("reopen mixed store: %v", err)
	}
	defer r.Close()
	if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
		t.Errorf("mixed v1/v2 store answers changed across reopen")
	}
	if !dataset.EqualValues(r.Snapshot().Materialize(), all) {
		t.Errorf("mixed v1/v2 store rows changed across reopen")
	}
}

// TestV1SegmentsReaccountedAtOpen pins the footprint of a v1 segment whose
// manifest has zone maps: Open decodes it once and accounts what its
// decoded form holds, not the v1 manifest's footprint with the sorted
// copies counted, and the commit Open makes records the corrected value.
func TestV1SegmentsReaccountedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	downgradeToV1(t, dir)
	m, err := readManifest(newestManifest(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	var stale int64
	for _, b := range m.Segments {
		stale += b.Decoded
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r.Snapshot().Materialize() // promotes every segment
	var want int64
	for i, sg := range r.Snapshot().segs {
		fp := sg.mustAcquire().footprint()
		if sg.bytes != fp {
			t.Errorf("segment %d: handle accounts %d bytes, footprint %d", i, sg.bytes, fp)
		}
		want += fp
	}
	// 5 segments × 256 rows × 68 B/row.
	if want != 87_040 || stale != 143_360 {
		t.Fatalf("decoded footprints sum to %d and the v1 manifest records %d, want 87040 and 143360", want, stale)
	}
	if got := r.TierStats().ResidentBytes; got != want {
		t.Errorf("ResidentBytes = %d, want the decoded footprints' %d", got, want)
	}
	m, err = readManifest(newestManifest(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range m.Segments {
		if fp := r.Snapshot().segs[i].mustAcquire().footprint(); b.Decoded != fp {
			t.Errorf("segment %d: committed decoded footprint %d, want %d", i, b.Decoded, fp)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
