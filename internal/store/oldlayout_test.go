package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// p3dman01 renders m in the JSON manifest layout writers used before
// P3DMAN02: the magic "P3DMAN01", the u32 payload length, the JSON payload
// and the u32 CRC-32 of the payload. The store no longer reads it.
func p3dman01(t testing.TB, m *manifest) []byte {
	t.Helper()
	block := func(b *manifestBlock) map[string]any {
		return map[string]any{"file": b.File, "rows": b.Rows, "size": b.Size, "crc": b.CRC, "decoded": b.Decoded, "zones": b.Zones}
	}
	segs := make([]map[string]any, len(m.Segments))
	for i := range m.Segments {
		segs[i] = block(&m.Segments[i])
	}
	doc := map[string]any{
		"seg_size": m.SegSize, "shards": m.Shards, "epoch": m.Epoch, "version": m.Version, "attrs": m.Attrs,
		"dict_len": m.DictLen, "dict_bytes": m.DictBytes, "dict_crc": m.DictCRC, "segments": segs,
	}
	if m.Tail != nil {
		doc["tail"] = block(m.Tail)
	}
	payload, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	buf := binary.LittleEndian.AppendUint32([]byte("P3DMAN01"), uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(append(buf, payload...), crc32.ChecksumIEEE(payload))
}

// dirState maps each file in dir to its size.
func dirState(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]int64{}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = fi.Size()
	}
	return state
}

// TestOldManifestLayoutFailsOpen rewrites every manifest of a directory in
// the P3DMAN01 layout: Open must fail with an error naming that layout,
// and leave every file of the directory as it was — an old directory is
// refused, never swept or half-upgraded.
func TestOldManifestLayoutFailsOpen(t *testing.T) {
	dir := t.TempDir()
	if err := createPersistStore(t, dir, persistTestRows, Options{}).Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listManifests(dir)
	if err != nil || len(seqs) != 2 {
		t.Fatalf("listManifests: %v (%d found)", seqs, len(seqs))
	}
	for _, seq := range seqs {
		path := filepath.Join(dir, manifestFileName(seq))
		m, err := readManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, p3dman01(t, m), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirState(t, dir)
	for _, opts := range []Options{{}, {MemCap: 1}} {
		r, err := Open(dir, opts)
		if err == nil {
			r.Close()
			t.Fatalf("Open(%+v) of a P3DMAN01 directory succeeded", opts)
		}
		if !strings.Contains(err.Error(), "P3DMAN01") {
			t.Errorf("Open(%+v) of a P3DMAN01 directory: %q does not name the layout", opts, err)
		}
		if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("Open(%+v) of a P3DMAN01 directory changed it: %v, was %v", opts, after, before)
		}
	}
}

// TestOldSegmentMagicFailsQueries gives a committed segment file the SEG v2
// or v1 magic, with a file CRC and manifest record that match the new
// bytes, so only the format is wrong: Open succeeds (it reads no segment),
// and every query that reads the segment fails with ErrUnreadable naming
// the file and its magic, resident cap or not.
func TestOldSegmentMagicFailsQueries(t *testing.T) {
	for _, magic := range []string{"P3DSEG02", "P3DSEG01"} {
		dir := t.TempDir()
		if err := createPersistStore(t, dir, persistTestRows, Options{}).Close(); err != nil {
			t.Fatal(err)
		}
		name := segFileName(1)
		path := filepath.Join(dir, name)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf = reCRC(append([]byte(magic), buf[len(magic):]...))
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		editNewestManifest(t, dir, func(m *manifest) { m.Segments[1].CRC = crc32.ChecksumIEEE(buf) })
		for _, opts := range []Options{{}, {MemCap: 1}} {
			r, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("%s, Open(%+v): %v", magic, opts, err)
			}
			wantEveryEvalFails(t, r.Snapshot(), name, magic)
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
