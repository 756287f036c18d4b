package store

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privacy3d/internal/dataset"
)

// persistTestRows is enough rows to seal several segments at the small
// test segment size and leave a non-empty tail.
const (
	persistSegSize  = 256
	persistTestRows = 5*persistSegSize + 77
)

func persistDataset(t *testing.T, rows int) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Synth("trial", rows, 42)
	if err != nil {
		t.Fatalf("Synth: %v", err)
	}
	return d
}

// Queries over the synthetic trial schema: height, weight, qi3, qi4,
// blood_pressure numeric; aids nominal.
var persistQueries = [][]Cond{
	nil,
	{{Col: "height", Op: Ge, V: 150}, {Col: "height", Op: Lt, V: 180}},
	{{Col: "weight", Op: Gt, V: 70}},
	{{Col: "aids", Op: Eq, S: "Y", Str: true}},
	{{Col: "aids", Op: Ne, S: "Y", Str: true}, {Col: "blood_pressure", Op: Le, V: 120}},
}

// queryFingerprint answers every persist query (count + bit-exact sums
// over every numeric column) against the snapshot.
func queryFingerprint(t *testing.T, snap *Snapshot) []uint64 {
	t.Helper()
	var numCols []int
	for j, a := range snap.Attrs() {
		if a.Kind == dataset.Numeric {
			numCols = append(numCols, j)
		}
	}
	var fp []uint64
	for qi, q := range persistQueries {
		bm, err := snap.Eval(q)
		if err != nil {
			t.Fatalf("Eval query %d: %v", qi, err)
		}
		fp = append(fp, uint64(snap.Count(bm)))
		for _, j := range numCols {
			fp = append(fp, math.Float64bits(snap.Sum(bm, j)))
		}
	}
	return fp
}

func fingerprintsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func createPersistStore(t *testing.T, dir string, rows int, opts Options) *Store {
	t.Helper()
	if opts.SegmentSize == 0 {
		opts.SegmentSize = persistSegSize
	}
	d := persistDataset(t, rows)
	s, err := CreateFromDataset(dir, d, opts)
	if err != nil {
		t.Fatalf("CreateFromDataset: %v", err)
	}
	return s
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	want := queryFingerprint(t, s.Snapshot())
	wantRows := s.Rows()
	wantVersion := s.Version()
	wantMat := s.Snapshot().Materialize()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if r.Rows() != wantRows {
		t.Fatalf("reopened store has %d rows, want %d", r.Rows(), wantRows)
	}
	if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
		t.Fatalf("reopened answers differ from pre-close answers")
	}
	if r.Version() <= wantVersion {
		t.Fatalf("reopened version %d not past pre-close version %d (epoch must advance)", r.Version(), wantVersion)
	}
	gotMat := r.Snapshot().Materialize()
	for j, a := range wantMat.Attrs() {
		for i := 0; i < wantMat.Rows(); i++ {
			if a.Kind == dataset.Numeric {
				if math.Float64bits(wantMat.Float(i, j)) != math.Float64bits(gotMat.Float(i, j)) {
					t.Fatalf("row %d col %d: %v != %v after reopen", i, j, wantMat.Float(i, j), gotMat.Float(i, j))
				}
			} else if wantMat.Cat(i, j) != gotMat.Cat(i, j) {
				t.Fatalf("row %d col %d: %q != %q after reopen", i, j, wantMat.Cat(i, j), gotMat.Cat(i, j))
			}
		}
	}
}

func TestReopenedStoreKeepsIngesting(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Appends continue from the recovered tail, sealing across the old
	// boundary and interning new dictionary strings.
	extra := persistDataset(t, persistSegSize)
	if err := r.AppendDataset(extra); err != nil {
		t.Fatalf("AppendDataset after reopen: %v", err)
	}
	if err := r.Append(170.0, 70.0, 50.0, 50.0, 120.0, "reopened-dict-entry"); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	wantRows := persistTestRows + persistSegSize + 1
	if r.Rows() != wantRows {
		t.Fatalf("rows = %d, want %d", r.Rows(), wantRows)
	}
	snap := r.Snapshot()
	if got := snap.Cat(wantRows-1, snap.Index("aids")); got != "reopened-dict-entry" {
		t.Fatalf("aids of appended row = %q", got)
	}
	want := queryFingerprint(t, snap)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	defer r2.Close()
	if r2.Rows() != wantRows {
		t.Fatalf("second reopen rows = %d, want %d", r2.Rows(), wantRows)
	}
	if got := queryFingerprint(t, r2.Snapshot()); !fingerprintsEqual(got, want) {
		t.Fatalf("answers changed across second reopen")
	}
	snap2 := r2.Snapshot()
	if got := snap2.Cat(wantRows-1, snap2.Index("aids")); got != "reopened-dict-entry" {
		t.Fatalf("aids after second reopen = %q", got)
	}
}

func TestSpillUnderMemCapByteIdentical(t *testing.T) {
	dir := t.TempDir()
	d := persistDataset(t, persistTestRows)
	ref, err := FromDataset(d, persistSegSize)
	if err != nil {
		t.Fatalf("FromDataset: %v", err)
	}
	want := queryFingerprint(t, ref.Snapshot())

	// Cap the resident tier below two segments' decoded footprint so most
	// sealed segments are evicted as ingest rolls on.
	s, err := CreateFromDataset(dir, d, Options{SegmentSize: persistSegSize, MemCap: 32 << 10})
	if err != nil {
		t.Fatalf("CreateFromDataset: %v", err)
	}
	defer s.Close()
	st := s.TierStats()
	if st.Spilled == 0 {
		t.Fatalf("no segments spilled under a %d-byte cap (resident=%d bytes=%d)", 32<<10, st.Resident, st.ResidentBytes)
	}
	if got := queryFingerprint(t, s.Snapshot()); !fingerprintsEqual(got, want) {
		t.Fatalf("spilled answers differ from resident answers")
	}
	st = s.TierStats()
	if st.PagerMisses == 0 {
		t.Fatalf("queries over spilled segments never read a segment file back")
	}
	// Repeat: answers stay identical while segments promote/evict.
	if got := queryFingerprint(t, s.Snapshot()); !fingerprintsEqual(got, want) {
		t.Fatalf("second spilled pass differs")
	}
}

func TestColdOpenAllSpilledThenPromotes(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	want := queryFingerprint(t, s.Snapshot())
	s.Close()

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if st := r.TierStats(); st.Resident != 0 || st.Spilled != 5 {
		t.Fatalf("cold open: resident=%d spilled=%d, want 0/5", st.Resident, st.Spilled)
	}
	if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
		t.Fatalf("cold answers differ")
	}
	// Uncapped store: the queries should have promoted every touched
	// segment back to the resident tier.
	if st := r.TierStats(); st.Resident == 0 {
		t.Fatalf("no segment promoted on an uncapped store")
	}
}

// corruptFile truncates or scribbles over a file to simulate torn writes
// and external corruption.
func corruptFile(t *testing.T, path string, truncateTo int64) {
	t.Helper()
	if truncateTo >= 0 {
		if err := os.Truncate(path, truncateTo); err != nil {
			t.Fatalf("truncate %s: %v", path, err)
		}
		return
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("XXXXXXXX"), 16); err != nil {
		t.Fatalf("scribble %s: %v", path, err)
	}
}

func newestManifest(t *testing.T, dir string) string {
	t.Helper()
	seqs, err := listManifests(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("listManifests: %v (%d found)", err, len(seqs))
	}
	return filepath.Join(dir, manifestFileName(seqs[0]))
}

func TestTruncatedManifestFallsBackToPreviousCommit(t *testing.T) {
	dir := t.TempDir()
	// Sealed-only ingest: commit A holds exactly the sealed segments.
	s := createPersistStore(t, dir, 3*persistSegSize, Options{})
	// Tail-only append, then Close: commit B = A + tail.
	if err := s.Append(170.0, 70.0, 50.0, 50.0, 120.0, "N"); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	corruptFile(t, newestManifest(t, dir), 10) // torn commit B
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after torn manifest: %v", err)
	}
	defer r.Close()
	if r.Rows() != 3*persistSegSize {
		t.Fatalf("recovered %d rows, want the previous commit's %d", r.Rows(), 3*persistSegSize)
	}
}

func TestTornTailFileFallsBackToPreviousCommit(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, 3*persistSegSize, Options{})
	if err := s.Append(170.0, 70.0, 50.0, 50.0, 120.0, "N"); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Corrupt the tail block file the newest manifest references: its
	// checksum no longer matches, so the commit must be rejected whole.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	torn := false
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tailPrefix) {
			corruptFile(t, filepath.Join(dir, e.Name()), -1)
			torn = true
		}
	}
	if !torn {
		t.Fatalf("no tail file on disk to corrupt")
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	defer r.Close()
	if r.Rows() != 3*persistSegSize {
		t.Fatalf("recovered %d rows, want the previous commit's %d", r.Rows(), 3*persistSegSize)
	}
}

func TestTornUncommittedSegmentIgnored(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, 3*persistSegSize, Options{})
	want := queryFingerprint(t, s.Snapshot())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A crashed ingest can leave a half-written segment file past the
	// committed list (and a stray tail). Open must ignore and sweep both.
	junkSeg := filepath.Join(dir, segFileName(3))
	if err := os.WriteFile(junkSeg, []byte("P3DSEG01 torn half-written segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	junkTail := filepath.Join(dir, tailFileName(99))
	if err := os.WriteFile(junkTail, []byte("P3DTAIL1 torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with torn uncommitted files: %v", err)
	}
	defer r.Close()
	if r.Rows() != 3*persistSegSize {
		t.Fatalf("rows = %d, want %d", r.Rows(), 3*persistSegSize)
	}
	if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
		t.Fatalf("answers differ after ignoring torn files")
	}
	if _, err := os.Stat(junkSeg); !os.IsNotExist(err) {
		t.Errorf("torn segment file not swept")
	}
	if _, err := os.Stat(junkTail); !os.IsNotExist(err) {
		t.Errorf("torn tail file not swept")
	}
}

func TestDoubleOpenFailsWithLockError(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistSegSize, Options{})
	defer s.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatalf("second Open of a live datadir succeeded")
	} else if !strings.Contains(err.Error(), "locked") {
		t.Fatalf("double-open error %q does not mention the lock", err)
	}
	// The lock dies with the store: after Close, Open succeeds.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	r.Close()
}

func TestCreateRefusesExistingStore(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistSegSize, Options{})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := Create(dir, s.Attrs(), Options{}); err == nil {
		t.Fatalf("Create over an existing store succeeded")
	}
}

func TestOpenRejectsSegmentSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistSegSize, Options{})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := Open(dir, Options{SegmentSize: 2 * persistSegSize}); err == nil {
		t.Fatalf("Open with mismatched segment size succeeded")
	}
}

func TestOpenEmptyDirFails(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatalf("Open of an empty directory succeeded")
	}
}

// TestManifestSegmentSizeCheckedAtOpen pins that a checksummed manifest
// whose segment size no store could have sealed fails validation: with a
// valid previous commit, recovery falls back to it; with none, Open
// fails naming the size, where it used to open the store with the
// default size and fail its row-count checks later.
func TestManifestSegmentSizeCheckedAtOpen(t *testing.T) {
	for _, size := range []int{0, -64, 100, MaxSegmentSize + 64} {
		dir := t.TempDir()
		s := createPersistStore(t, dir, 3*persistSegSize, Options{})
		if err := s.Append(170.0, 70.0, 50.0, 50.0, 120.0, "N"); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		editNewestManifest(t, dir, func(m *manifest) { m.SegSize = size })
		m, err := readManifest(newestManifest(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := validateManifest(dir, m, nil); err == nil || !strings.Contains(err.Error(), "segment size") {
			t.Fatalf("seg_size %d: validateManifest = %v, want a segment-size error", size, err)
		}
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("seg_size %d: Open: %v", size, err)
		}
		if r.Rows() != 3*persistSegSize || r.SegmentSize() != persistSegSize {
			t.Fatalf("seg_size %d: recovered %d rows of segment size %d, want the previous commit's %d of %d", size, r.Rows(), r.SegmentSize(), 3*persistSegSize, persistSegSize)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}

		seqs, err := listManifests(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			path := filepath.Join(dir, manifestFileName(seq))
			m, err := readManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			m.SegSize = size
			if err := writeManifest(dir, seq, m); err != nil {
				t.Fatal(err)
			}
		}
		if r, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "segment size") {
			if r != nil {
				r.Close()
			}
			t.Fatalf("seg_size %d in every manifest: Open = %v, want a segment-size error", size, err)
		}
	}
}

// wantOnlyReferencedFiles fails unless dir holds exactly two manifests,
// the segment and tail files they reference, LOCK and DICT.
func wantOnlyReferencedFiles(t *testing.T, dir string) {
	t.Helper()
	seqs, err := listManifests(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("%d manifests %v on disk, want the newest and its fallback", len(seqs), seqs)
	}
	want := map[string]bool{lockFileName: true, dictFileName: true}
	for _, seq := range seqs {
		want[manifestFileName(seq)] = true
		m, err := readManifest(filepath.Join(dir, manifestFileName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range m.Segments {
			want[b.File] = true
		}
		if m.Tail != nil {
			want[m.Tail.File] = true
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range ents {
		got[e.Name()] = true
		if !want[e.Name()] {
			t.Errorf("%s is on disk, but neither kept manifest references it", e.Name())
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("%s is referenced, but not on disk", name)
		}
	}
}

// appendRows appends rows [from, to) of d one Append at a time, so every
// seal commits on its own.
func appendRows(t *testing.T, s *Store, d *dataset.Dataset, from, to int) {
	t.Helper()
	vals := make([]any, d.Cols())
	for i := from; i < to; i++ {
		for j := range vals {
			vals[j] = d.Value(i, j)
		}
		if err := s.Append(vals...); err != nil {
			t.Fatalf("Append row %d: %v", i, err)
		}
	}
}

// TestCommitsKeepOnlyReferencedFiles seals 20 segments one Append at a
// time, so each seal is a commit that removes the manifest and tail file
// it supersedes by name, then closes with a partial tail: the directory
// holds exactly what the two kept manifests reference. Orphans planted
// before a reopen — a temp file, a tail file no manifest names and a
// segment file past the committed count — are left alone by the commits
// of a running store, which do not list the directory, and swept by
// Open's commit.
func TestCommitsKeepOnlyReferencedFiles(t *testing.T) {
	const segSize, segs = 64, 20
	dir := t.TempDir()
	d := persistDataset(t, 2*segs*segSize)
	s, err := Create(dir, d.Attrs(), Options{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, s, d, 0, segs*segSize+17)
	wantOnlyReferencedFiles(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantOnlyReferencedFiles(t, dir)

	orphans := []string{segFileName(segs) + tmpInfix + "123", tailFileName(999), segFileName(segs + 5)}
	plant := func() {
		for _, name := range orphans {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	plant()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantOnlyReferencedFiles(t, dir)

	// A running store's commits remove only what they supersede.
	plant()
	appendRows(t, r, d, segs*segSize+17, (segs+3)*segSize)
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("orphan %s: %v; a commit of a running store swept it", name, err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wantOnlyReferencedFiles(t, dir)
	if want := (segs + 3) * segSize; r.Rows() != want {
		t.Fatalf("reopened store holds %d rows, want %d", r.Rows(), want)
	}
}

// TestCommitAfterFailedCommitSweeps makes one seal's commit fail — a
// directory squats on the name of the manifest it writes — and checks
// that the next commit, with the squatter gone, lists the directory and
// sweeps the files no kept manifest references.
func TestCommitAfterFailedCommitSweeps(t *testing.T) {
	const segSize = 64
	dir := t.TempDir()
	d := persistDataset(t, 4*segSize)
	s, err := Create(dir, d.Attrs(), Options{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendRows(t, s, d, 0, segSize+5)
	wantOnlyReferencedFiles(t, dir)

	// The next commit's manifest name is taken by a non-empty directory,
	// so its rename fails.
	squat := filepath.Join(dir, manifestFileName(s.manifestSeq+1))
	if err := os.MkdirAll(filepath.Join(squat, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, tailFileName(999))
	if err := os.WriteFile(orphan, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	appendRows(t, s, d, segSize+5, 2*segSize-1)
	vals := make([]any, d.Cols())
	for j := range vals {
		vals[j] = d.Value(2*segSize-1, j)
	}
	if err := s.Append(vals...); err == nil {
		t.Fatal("the seal's commit succeeded onto a directory")
	}
	if err := os.RemoveAll(squat); err != nil {
		t.Fatal(err)
	}
	appendRows(t, s, d, 2*segSize, 3*segSize+3)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan tail file not swept by the commit after a failed one: %v", err)
	}
	wantOnlyReferencedFiles(t, dir)
}
