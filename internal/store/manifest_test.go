package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// manifestMagicOf returns the magic of the newest manifest in dir.
func manifestMagicOf(t *testing.T, dir string) string {
	t.Helper()
	raw, err := os.ReadFile(newestManifest(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw[:len(manifestMagic)])
}

// editNewestManifest applies edit to the newest committed manifest and
// commits it back under the same sequence with the current writer.
func editNewestManifest(t *testing.T, dir string, edit func(m *manifest)) {
	t.Helper()
	path := newestManifest(t, dir)
	m, err := readManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	edit(m)
	buf, err := encodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManifestRoundTripsBinary pins the writer's layout: every commit
// writes P3DMAN02, its encoding is exactly as long as its records, and it
// decodes to the manifest it encodes, zones, tail and schema included.
func TestManifestRoundTripsBinary(t *testing.T) {
	dir := t.TempDir()
	s := zoneEdgeStore(t, dir, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := manifestMagicOf(t, dir); got != manifestMagic {
		t.Fatalf("commit wrote a %q manifest, want %q", got, manifestMagic)
	}
	raw, err := os.ReadFile(newestManifest(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 3 || m.Tail == nil || m.Tail.Rows != 10 || len(m.Attrs) != 4 {
		t.Fatalf("decoded %d segments, tail %+v, %d attributes", len(m.Segments), m.Tail, len(m.Attrs))
	}
	attrs := 0
	for _, a := range m.Attrs {
		attrs += 10 + len(a.Name)
	}
	if want := 8 + 6*8 + 3*4 + attrs + 3*segRecordSize(4) + 1 + 28 + 4; len(raw) != want {
		t.Errorf("manifest is %d bytes, its records take %d", len(raw), want)
	}
	for i, b := range m.Segments {
		if b.File != segFileName(i) || len(b.Zones) != 4 {
			t.Errorf("segment %d: file %q, %d zones", i, b.File, len(b.Zones))
		}
	}
	if z := decodeZones(m.Segments[0].Zones)[0]; math.Float64bits(z.min) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("segment 0 column 0 zone %v lost its −0", z)
	}
	re, err := encodeManifest(m)
	if err != nil || !bytes.Equal(re, raw) {
		t.Fatalf("re-encoding the decoded manifest gives different bytes (%v)", err)
	}
}

// TestBinaryManifestOpenStatsSegmentsOnly checks that Open of a P3DMAN02
// manifest reads no segment file: a same-size segment file given the SEG
// v1 magic over rotten bytes opens, with no spilled read, and fails the
// queries that read it on the checksum.
func TestBinaryManifestOpenStatsSegmentsOnly(t *testing.T) {
	dir := t.TempDir()
	if err := createPersistStore(t, dir, persistTestRows, Options{}).Close(); err != nil {
		t.Fatal(err)
	}
	name := segFileName(1)
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("P3DSEG01"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open over a P3DMAN02 manifest read a segment file: %v", err)
	}
	if got := r.TierStats().PagerMisses; got != 0 {
		t.Errorf("Open made %d spilled reads, want 0", got)
	}
	wantEveryEvalFails(t, r.Snapshot(), name, "checksum")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMisnamedBlockFallsBackToPreviousCommit pins that a commit naming a
// segment out of its ordinal is invalid like a torn one. (The P3DMAN02
// layout derives each file name from a number, so no other misnaming can
// be written.)
func TestMisnamedBlockFallsBackToPreviousCommit(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*manifest)
	}{
		{"P3DMAN02 segment", func(m *manifest) { m.Segments[1].File = segFileName(2) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := createPersistStore(t, dir, 3*persistSegSize, Options{})
			if err := s.Append(170.0, 70.0, 50.0, 50.0, 120.0, "N"); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			editNewestManifest(t, dir, c.edit)
			m, err := readManifest(newestManifest(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := validateManifest(dir, m, nil); err == nil || !strings.Contains(err.Error(), "named") {
				t.Fatalf("validateManifest = %v, want a naming error", err)
			}
			r, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Rows() != 3*persistSegSize {
				t.Fatalf("recovered %d rows, want the previous commit's %d", r.Rows(), 3*persistSegSize)
			}
		})
	}
}

// TestOpenSweepsFromRecoveryListing tears the newest commit and plants
// orphans, then opens: recovery falls back, and Open's commit — which
// takes the sequence number, and with a tail the tail file name, of the
// torn commit — sweeps from the listing recovery made. Afterwards the
// directory holds exactly what the two kept manifests reference, and a
// second reopen (which falls back to nothing) holds the same rows.
func TestOpenSweepsFromRecoveryListing(t *testing.T) {
	for _, tailed := range []bool{false, true} {
		dir := t.TempDir()
		rows := 3 * persistSegSize
		if tailed {
			rows += 7
		}
		s := createPersistStore(t, dir, rows, Options{})
		want := queryFingerprint(t, s.Snapshot())
		if err := s.Append(170.0, 70.0, 50.0, 50.0, 120.0, "N"); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		corruptFile(t, newestManifest(t, dir), 10)
		for _, name := range []string{tailFileName(999), segFileName(3), "manifest" + tmpInfix + "1"} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for reopen := 0; reopen < 2; reopen++ {
			r, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("tail %v, reopen %d: %v", tailed, reopen, err)
			}
			wantOnlyReferencedFiles(t, dir)
			if r.Rows() != rows {
				t.Fatalf("tail %v, reopen %d: %d rows, want the previous commit's %d", tailed, reopen, r.Rows(), rows)
			}
			if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
				t.Fatalf("tail %v, reopen %d: answers differ from the previous commit's", tailed, reopen)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSweepAfterOpenListsFresh pins that only Open's own commit sweeps
// from the listing recovery made: the first commit after a failed one,
// later in the reopened store's life, lists the directory again, so it
// sweeps an orphan planted after Open.
func TestSweepAfterOpenListsFresh(t *testing.T) {
	const segSize = 64
	dir := t.TempDir()
	d := persistDataset(t, 4*segSize)
	s, err := Create(dir, d.Attrs(), Options{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, s, d, 0, segSize+5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The next commit's manifest name is taken by a non-empty directory,
	// so the seal's commit fails.
	squat := filepath.Join(dir, manifestFileName(r.manifestSeq+1))
	if err := os.MkdirAll(filepath.Join(squat, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, tailFileName(999))
	if err := os.WriteFile(orphan, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	appendRows(t, r, d, segSize+5, 2*segSize-1)
	vals := make([]any, d.Cols())
	for j := range vals {
		vals[j] = d.Value(2*segSize-1, j)
	}
	if err := r.Append(vals...); err == nil {
		t.Fatal("the seal's commit succeeded onto a directory")
	}
	if err := os.RemoveAll(squat); err != nil {
		t.Fatal(err)
	}
	appendRows(t, r, d, 2*segSize, 3*segSize+3)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan planted after Open not swept by the commit after a failed one: %v", err)
	}
	wantOnlyReferencedFiles(t, dir)
}
