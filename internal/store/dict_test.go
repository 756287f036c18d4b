package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSegmentFormatsDecodeToSealedSegment pins decode(encode(seg)) to the
// sealed segment, bit for bit — NaN payloads, −0 and +0 included — for
// every column kind of indexColumns, through the SEG v3 writer, at a
// short, the default and the largest segment size. Each form's footprint
// must be exactly the bytes its slices hold.
func TestSegmentFormatsDecodeToSealedSegment(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{64, DefaultSegmentSize, MaxSegmentSize} {
		_, nums, cats := indexColumns(n, rng)
		attrs := schemaOf(nums)
		sealed := buildSegData(nums, cats)
		if _, _, err := writeSegFile(dir, "seg", 3*n, attrs, sealed); err != nil {
			t.Fatal(err)
		}
		v3, err := os.ReadFile(filepath.Join(dir, "seg"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			name string
			buf  []byte
		}{
			{"v3", v3},
		} {
			base, d, err := decodeSegment(&blockReader{buf: f.buf, name: f.name}, attrs)
			if err != nil {
				t.Fatalf("n=%d %s: decode: %v", n, f.name, err)
			}
			if base != 3*n {
				t.Errorf("n=%d %s: base %d, want %d", n, f.name, base, 3*n)
			}
			if diff := sameSegData(d, sealed); diff != "" {
				t.Errorf("n=%d %s: decoded segment differs from the sealed one: %s", n, f.name, diff)
			}
			if got, want := d.footprint(), heldBytes(reflect.ValueOf(d)); got != want {
				t.Errorf("n=%d %s: footprint %d, holds %d bytes", n, f.name, got, want)
			}
		}
		if got, want := sealed.footprint(), heldBytes(reflect.ValueOf(sealed)); got != want {
			t.Errorf("n=%d sealed: footprint %d, holds %d bytes", n, got, want)
		}
	}
}

// TestOpenAccountsDecodedFootprints pins the resident bytes of a reopened
// store, once every segment is promoted, to the bytes the decoded
// segments hold, and each handle's accounted bytes and committed
// footprint to its segment's.
func TestOpenAccountsDecodedFootprints(t *testing.T) {
	dir := t.TempDir()
	if err := createPersistStore(t, dir, persistTestRows, Options{}).Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	r.Snapshot().Materialize() // promotes every segment
	m, err := readManifest(newestManifest(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	var held int64
	for i, sg := range r.Snapshot().segs {
		d := sg.mustAcquire()
		h := heldBytes(reflect.ValueOf(d))
		if sg.bytes != h || m.Segments[i].Decoded != h {
			t.Errorf("segment %d: handle accounts %d bytes and the manifest %d, the segment holds %d",
				i, sg.bytes, m.Segments[i].Decoded, h)
		}
		held += h
	}
	if got := r.TierStats().ResidentBytes; got != held {
		t.Errorf("ResidentBytes = %d, the decoded segments hold %d", got, held)
	}
}
