package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"privacy3d/internal/dataset"
)

// segFormat is a sealed-segment file format an older writer produced.
type segFormat int

const (
	formatV3 segFormat = iota // the current writer: left as it is
	formatV2
	formatV1
)

// legacyIndex is the index a SEG v1/v2 writer persisted for one column of
// d: for a numeric column the non-NaN rows sorted by value (−0 equal to
// +0), then by row, and the NaN rows in row order; for a categorical one
// every row sorted by code, then by row. vals are the raw values.
func legacyIndex(d *segData, j int) (vals []float64, codes, perm, nan []uint32) {
	if c := &d.nums[j]; c.codes != nil {
		for i := range c.codes {
			vals = append(vals, c.at(i))
		}
		for i, v := range vals {
			if math.IsNaN(v) {
				nan = append(nan, uint32(i))
			} else {
				perm = append(perm, uint32(i))
			}
		}
		sort.SliceStable(perm, func(a, b int) bool { return vals[perm[a]] < vals[perm[b]] })
		return vals, nil, perm, nan
	}
	c := &d.cats[j]
	for i := range c.codes {
		codes = append(codes, c.at(i))
		perm = append(perm, uint32(i))
	}
	sort.SliceStable(perm, func(a, b int) bool { return codes[perm[a]] < codes[perm[b]] })
	return nil, codes, perm, nil
}

// encodeSegLegacy renders a decoded segment in the SEG v2 format or, with
// v1, the SEG v1 format, which followed every permutation with a sorted
// copy of the values it orders: permLen × f64 after a numeric perm, rows
// × u32 after a categorical one.
func encodeSegLegacy(t testing.TB, base int, d *segData, v1 bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	cw := &crcWriter{w: bw}
	magic := segMagicV2
	if v1 {
		magic = segMagicV1
	}
	cw.header(magic, len(d.nums), d.n, base)
	for j := range d.nums {
		vals, codes, perm, nan := legacyIndex(d, j)
		if vals != nil || d.nums[j].codes != nil {
			cw.u8(tagNumeric)
			putSlice(cw, vals)
			cw.u32(uint32(len(perm)))
			putSlice(cw, perm)
			if v1 {
				sorted := make([]float64, len(perm))
				for k, r := range perm {
					sorted[k] = vals[r]
				}
				putSlice(cw, sorted)
			}
			putSlice(cw, nan)
			continue
		}
		cw.u8(tagCategorical)
		putSlice(cw, codes)
		putSlice(cw, perm)
		if v1 {
			sorted := make([]uint32, len(perm))
			for k, r := range perm {
				sorted[k] = codes[r]
			}
			putSlice(cw, sorted)
		}
	}
	cw.u32(cw.crc)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeSegV2(t testing.TB, base int, d *segData) []byte {
	return encodeSegLegacy(t, base, d, false)
}

func encodeSegV1(t testing.TB, base int, d *segData) []byte { return encodeSegLegacy(t, base, d, true) }

// encodeManifestV1 renders m as a P3DMAN01 manifest file, the layout
// writers used before P3DMAN02: the magic, the u32 payload length, the
// JSON payload and the u32 CRC-32 of the payload.
func encodeManifestV1(t testing.TB, m *manifest) []byte {
	t.Helper()
	payload, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	buf := binary.LittleEndian.AppendUint32([]byte(manifestMagicV1), uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(append(buf, payload...), crc32.ChecksumIEEE(payload))
}

// legacyFootprint is the decoded footprint a SEG v2 writer (or, with v1,
// a SEG v1 writer) recorded for d: raw 8-byte values and 4-byte
// permutation or NaN entries per numeric row, 4-byte codes and
// permutation entries per categorical row, plus v1's sorted copies.
func legacyFootprint(d *segData, v1 bool) int64 {
	var b int64
	for j := range d.nums {
		if c := &d.nums[j]; c.codes != nil {
			b += 12 * int64(d.n)
			if v1 {
				b += 8 * int64(c.pos(c.nanFrom))
			}
			continue
		}
		b += 8 * int64(d.n)
		if v1 {
			b += 4 * int64(d.n)
		}
	}
	return b
}

// downgradeSegments rewrites each sealed segment file the newest manifest
// references in the format format(ord) gives it and recommits the
// manifest as P3DMAN01 (rewriteNewestManifest) with the new sizes and
// checksums, and with the decoded footprints that format's writer
// recorded, as an older writer would have left the directory.
func downgradeSegments(t *testing.T, dir string, format func(ord int) segFormat) {
	t.Helper()
	rewriteNewestManifest(t, dir, func(m *manifest) {
		for i := range m.Segments {
			f := format(i)
			if f == formatV3 {
				continue
			}
			b := &m.Segments[i]
			path := filepath.Join(dir, b.File)
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			base, d, err := decodeSegment(&blockReader{buf: buf, name: b.File}, m.Attrs)
			if err != nil {
				t.Fatalf("decode %s: %v", b.File, err)
			}
			old := encodeSegLegacy(t, base, d, f == formatV1)
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			b.Size, b.CRC, b.Decoded = int64(len(old)), crc32.ChecksumIEEE(old), legacyFootprint(d, f == formatV1)
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

// mixedFormat gives the first segments of a directory the SEG v1, v2 and
// v3 formats in turn.
func mixedFormat(ord int) segFormat { return []segFormat{formatV1, formatV2, formatV3}[ord%3] }

// magic is the magic a segment file of format f starts with.
func (f segFormat) magic() string { return []string{segMagic, segMagicV2, segMagicV1}[f] }

// TestV1SegmentFilesStillServe opens a directory whose sealed segments
// are in the SEG v1, v2 and v3 formats in turn: it must answer
// byte-identically to the store that wrote it — a fresh build of its rows
// — resident or decoded on every acquire, and keep working once ingest
// seals v3 segments next to the older ones.
func TestV1SegmentFilesStillServe(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	want := queryFingerprint(t, s.Snapshot())
	wantMat := s.Snapshot().Materialize()
	oldSegs := len(s.Snapshot().segs)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	downgradeSegments(t, dir, mixedFormat)
	for ord := 0; ord < oldSegs; ord++ {
		if got := segFileMagic(t, dir, ord); got != mixedFormat(ord).magic() {
			t.Fatalf("segment %d magic %q after downgrade", ord, got)
		}
	}

	for _, opts := range []Options{{}, {MemCap: 1}} {
		r, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open(%+v) over v1/v2/v3 segments: %v", opts, err)
		}
		if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
			t.Errorf("MemCap %d: answers from v1/v2/v3 segments differ", opts.MemCap)
		}
		if !dataset.EqualValues(r.Snapshot().Materialize(), wantMat) {
			t.Errorf("MemCap %d: rows from v1/v2/v3 segments differ", opts.MemCap)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}

	// Ingest seals v3 segments after the older ones.
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
		t.Errorf("mixed v1/v2/v3 store answers differ from a fresh build of its rows")
	}
	segs := len(r.Snapshot().segs)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if segs <= oldSegs {
		t.Fatalf("ingest sealed no new segment (%d segments)", segs)
	}
	for ord := 0; ord < segs; ord++ {
		want := segMagic
		if ord < oldSegs {
			want = mixedFormat(ord).magic()
		}
		if got := segFileMagic(t, dir, ord); got != want {
			t.Errorf("segment %d magic %q, want %q", ord, got, want)
		}
	}
	for _, opts := range []Options{{}, {MemCap: 1}} {
		r, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen mixed store: %v", err)
		}
		if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
			t.Errorf("MemCap %d: mixed v1/v2/v3 store answers changed across reopen", opts.MemCap)
		}
		if !dataset.EqualValues(r.Snapshot().Materialize(), all) {
			t.Errorf("MemCap %d: mixed v1/v2/v3 store rows changed across reopen", opts.MemCap)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestV1SegmentsReaccountedAtOpen pins the footprint of SEG v1 and v2
// segments whose manifest has zone maps: Open decodes each once and
// accounts what its dictionary-coded form holds, not the footprint the
// older writer recorded (v1 counted the sorted copies too), and the
// commit Open makes records the corrected value.
func TestV1SegmentsReaccountedAtOpen(t *testing.T) {
	for _, c := range []struct {
		format segFormat
		stale  int64
	}{
		// 5 segments × 256 rows: v1 took 112 B/row, v2 68 B/row.
		{formatV1, 143_360},
		{formatV2, 87_040},
	} {
		dir := t.TempDir()
		s := createPersistStore(t, dir, persistTestRows, Options{})
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		downgradeSegments(t, dir, func(int) segFormat { return c.format })
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
				t.Errorf("%s segment %d: handle accounts %d bytes, footprint %d", c.format.magic(), i, sg.bytes, fp)
			}
			want += fp
		}
		// 5 segments × 256 rows in the dictionary-coded form: 6 columns
		// of 2-byte codes and perm entries, and dictionaries of 2-byte
		// starts and 8-byte (numeric) or 4-byte (categorical) values.
		// Segments this short hold nearly as many distinct values as
		// rows, so their dictionaries take most of the 61.9 B/row.
		if want != 79_220 || stale != c.stale {
			t.Fatalf("%s: decoded footprints sum to %d and the old manifest records %d, want 79220 and %d", c.format.magic(), want, stale, c.stale)
		}
		if got := r.TierStats().ResidentBytes; got != want {
			t.Errorf("%s: ResidentBytes = %d, want the decoded footprints' %d", c.format.magic(), got, want)
		}
		m, err = readManifest(newestManifest(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range m.Segments {
			if fp := r.Snapshot().segs[i].mustAcquire().footprint(); b.Decoded != fp {
				t.Errorf("%s segment %d: committed decoded footprint %d, want %d", c.format.magic(), i, b.Decoded, fp)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestUpgradeCommitsBinaryManifest opens a directory an older writer left
// — SEG v1, v2 and v3 files under a P3DMAN01 manifest with the older
// footprints — and checks the upgrade: Open answers byte-identically and
// commits P3DMAN02 with the dictionary-coded footprints and the zones, and
// the next Open takes both from that manifest without decoding a segment
// (no spilled read until a query touches one).
func TestUpgradeCommitsBinaryManifest(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	want := queryFingerprint(t, s.Snapshot())
	var wantZones [][]zone
	var wantBytes []int64
	for _, sg := range s.Snapshot().segs {
		wantZones = append(wantZones, sg.zones)
		wantBytes = append(wantBytes, sg.mustAcquire().footprint())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	downgradeSegments(t, dir, mixedFormat)
	if got := manifestMagicOf(t, dir); got != manifestMagicV1 {
		t.Fatalf("downgraded directory has a %q manifest", got)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open over P3DMAN01: %v", err)
	}
	if r.TierStats().PagerMisses == 0 {
		t.Errorf("Open over P3DMAN01 and SEG v1/v2 files decoded no segment")
	}
	if got := manifestMagicOf(t, dir); got != manifestMagic {
		t.Errorf("Open over P3DMAN01 committed a %q manifest, want %q", got, manifestMagic)
	}
	if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
		t.Errorf("answers after the upgrade differ")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	for _, opts := range []Options{{}, {MemCap: 1}} {
		r, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen upgraded directory: %v", err)
		}
		if got := r.TierStats().PagerMisses; got != 0 {
			t.Errorf("MemCap %d: reopen made %d spilled reads, want 0", opts.MemCap, got)
		}
		for i, sg := range r.Snapshot().segs {
			if sg.bytes != wantBytes[i] {
				t.Errorf("MemCap %d: segment %d (%s) accounts %d bytes, want %d", opts.MemCap, i, mixedFormat(i).magic(), sg.bytes, wantBytes[i])
			}
			for j, z := range sg.zones {
				if !z.identical(wantZones[i][j]) {
					t.Errorf("MemCap %d: segment %d column %d zone %v, want %v", opts.MemCap, i, j, z, wantZones[i][j])
				}
			}
		}
		if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
			t.Errorf("MemCap %d: answers after reopening the upgraded directory differ", opts.MemCap)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for ord := range wantBytes {
		if got := segFileMagic(t, dir, ord); got != mixedFormat(ord).magic() {
			t.Errorf("segment %d magic %q: the upgrade rewrote a segment file", ord, got)
		}
	}
}
