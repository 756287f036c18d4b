package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dirNames lists dir's entries as a set.
func dirNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, name := range names {
		set[name] = true
	}
	return set
}

// wantOneNewManifest fails unless the only entry of after missing from
// before is the manifest of the commit at seq.
func wantOneNewManifest(t *testing.T, before, after map[string]bool, seq uint64) {
	t.Helper()
	var added []string
	for name := range after {
		if !before[name] {
			added = append(added, name)
		}
	}
	if len(added) != 1 || added[0] != manifestFileName(seq) {
		t.Fatalf("the commit added %v, want only %s", added, manifestFileName(seq))
	}
}

// committedTailFile returns the tail file the newest manifest names.
func committedTailFile(t *testing.T, dir string) string {
	t.Helper()
	m, err := readManifest(newestManifest(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if m.Tail == nil {
		t.Fatalf("the newest manifest has no tail")
	}
	return m.Tail.File
}

func statFile(t *testing.T, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// TestUnchangedReopenWritesOnlyManifests pins that Open's epoch commit and
// the Close of a store nothing was appended to each add one file, their
// manifest, and both name the tail file the previous commit wrote: the
// same file on disk, not a rewritten copy.
func TestUnchangedReopenWritesOnlyManifests(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tail := committedTailFile(t, dir)
	tailInfo := statFile(t, filepath.Join(dir, tail))

	before := dirNames(t, dir)
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantOneNewManifest(t, before, dirNames(t, dir), r.manifestSeq)
	before = dirNames(t, dir)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	wantOneNewManifest(t, before, dirNames(t, dir), r.manifestSeq)
	wantOnlyReferencedFiles(t, dir)

	if got := committedTailFile(t, dir); got != tail {
		t.Fatalf("the newest manifest names %s, want the shared %s", got, tail)
	}
	if !os.SameFile(tailInfo, statFile(t, filepath.Join(dir, tail))) {
		t.Fatalf("%s was replaced by another file", tail)
	}
}

// TestReopenCyclesKeepSharedTail runs five Open/Close cycles over one
// datadir, with and without a memory cap: every commit leaves exactly the
// files the two kept manifests reference — both of which name the one
// tail file — and every reopen answers as the store did when it was
// built.
func TestReopenCyclesKeepSharedTail(t *testing.T) {
	for _, opts := range []Options{{}, {MemCap: 1}} {
		dir := t.TempDir()
		s := createPersistStore(t, dir, persistTestRows, opts)
		want := queryFingerprint(t, s.Snapshot())
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		tail := committedTailFile(t, dir)
		tailInfo := statFile(t, filepath.Join(dir, tail))
		for cycle := 0; cycle < 5; cycle++ {
			r, err := Open(dir, Options{MemCap: opts.MemCap})
			if err != nil {
				t.Fatalf("MemCap %d, cycle %d: Open: %v", opts.MemCap, cycle, err)
			}
			wantOnlyReferencedFiles(t, dir)
			if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
				t.Fatalf("MemCap %d, cycle %d: answers changed across reopen", opts.MemCap, cycle)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("MemCap %d, cycle %d: Close: %v", opts.MemCap, cycle, err)
			}
			wantOnlyReferencedFiles(t, dir)
			if got := committedTailFile(t, dir); got != tail {
				t.Fatalf("MemCap %d, cycle %d: the newest manifest names %s, want the shared %s", opts.MemCap, cycle, got, tail)
			}
			if !os.SameFile(tailInfo, statFile(t, filepath.Join(dir, tail))) {
				t.Fatalf("MemCap %d, cycle %d: %s was replaced by another file", opts.MemCap, cycle, tail)
			}
		}
	}
}

// TestAppendAfterReopenSupersedesSharedTail pins the supersede bookkeeping
// when both kept manifests name one tail file: the first commit after an
// append writes a new tail and keeps the shared one for its fallback; the
// second drops it. A tail as long as the committed one but at the next
// base, and a tail one row longer at the same base, are both new tails.
func TestAppendAfterReopenSupersedesSharedTail(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	shared := committedTailFile(t, dir)
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	extra := persistDataset(t, persistSegSize)

	// Each block seals one segment and commits a tail of the same length
	// at the next base.
	if err := r.AppendDataset(extra); err != nil {
		t.Fatal(err)
	}
	wantOnlyReferencedFiles(t, dir)
	first := committedTailFile(t, dir)
	if first == shared {
		t.Fatalf("the commit after an append named the old tail %s", shared)
	}
	if _, err := os.Stat(filepath.Join(dir, shared)); err != nil {
		t.Fatalf("the fallback's tail %s was removed after one supersede: %v", shared, err)
	}

	if err := r.AppendDataset(extra); err != nil {
		t.Fatal(err)
	}
	wantOnlyReferencedFiles(t, dir)
	if _, err := os.Stat(filepath.Join(dir, shared)); !os.IsNotExist(err) {
		t.Fatalf("%s superseded twice is still on disk: %v", shared, err)
	}
	if _, err := os.Stat(filepath.Join(dir, first)); err != nil {
		t.Fatalf("the fallback's tail %s was removed: %v", first, err)
	}
	want := persistTestRows + 2*persistSegSize
	if r.Rows() != want {
		t.Fatalf("store holds %d rows, want %d", r.Rows(), want)
	}

	if err := r.Append(170.0, 70.0, 50.0, 50.0, 120.0, "N"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	wantOnlyReferencedFiles(t, dir)
	r, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rows() != want+1 {
		t.Fatalf("reopened store holds %d rows, want %d", r.Rows(), want+1)
	}
}

// TestFailedCloseKeepsSharedTailCommit makes a Close fail at its
// manifest's rename — a non-empty directory squats on the name — after
// an Open whose commit named the tail file the previous commit wrote,
// and after one more appended row. The last successful commit and its
// tail still open, without the row the failed Close carried.
func TestFailedCloseKeepsSharedTailCommit(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	want := queryFingerprint(t, s.Snapshot())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Append(170.0, 70.0, 50.0, 50.0, 120.0, "N"); err != nil {
		t.Fatal(err)
	}
	squat := filepath.Join(dir, manifestFileName(r.manifestSeq+1))
	if err := os.MkdirAll(filepath.Join(squat, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close committed onto a directory")
	}
	if err := os.RemoveAll(squat); err != nil {
		t.Fatal(err)
	}

	r, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after a failed Close: %v", err)
	}
	defer r.Close()
	if r.Rows() != persistTestRows {
		t.Fatalf("reopened store holds %d rows, want the last commit's %d", r.Rows(), persistTestRows)
	}
	if got := queryFingerprint(t, r.Snapshot()); !fingerprintsEqual(got, want) {
		t.Fatalf("answers changed across a failed Close")
	}
	wantOnlyReferencedFiles(t, dir)
}

// TestCorruptSharedTailFailsOpen pins what sharing the tail costs: once
// both kept manifests name one tail file, as after an unchanged
// Open/Close, corrupting it leaves no older copy to fall back to, so Open
// fails with an error naming the file — as a corrupt DICT prefix, which
// the two manifests also share, does.
func TestCorruptSharedTailFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := createPersistStore(t, dir, persistTestRows, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	tail := committedTailFile(t, dir)
	corruptFile(t, filepath.Join(dir, tail), -1)
	r, err = Open(dir, Options{})
	if err == nil {
		r.Close()
		t.Fatal("Open succeeded over a corrupt shared tail")
	}
	if !strings.Contains(err.Error(), tail) {
		t.Fatalf("Open error %q does not name %s", err, tail)
	}
}
