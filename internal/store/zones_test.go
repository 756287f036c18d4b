package store

import (
	"math"
	"strings"
	"testing"

	"privacy3d/internal/dataset"
)

const zoneSegSize = 64

// zoneEdgeStore creates a durable store of three sealed 64-row segments
// plus a short tail whose numeric columns hit every zone-map edge case:
//
//	a: segment 0 starts with −0 (min is −0), segment 1 with +0 (min is +0);
//	b: segment 0 spans −Inf..+Inf, segment 1 is all +Inf;
//	c: NaN on every third row, and segment 2 is all NaN (the empty zone).
func zoneEdgeStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	attrs := []dataset.Attribute{
		{Name: "a", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		{Name: "b", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		{Name: "c", Role: dataset.Confidential, Kind: dataset.Numeric},
		{Name: "k", Role: dataset.Confidential, Kind: dataset.Nominal},
	}
	opts.SegmentSize = zoneSegSize
	s, err := Create(dir, attrs, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	negZero := math.Copysign(0, -1)
	for i := 0; i < 3*zoneSegSize+10; i++ {
		seg, r := i/zoneSegSize, i%zoneSegSize
		a := float64(r)
		switch {
		case r == 0 && seg == 0:
			a = negZero
		case r == 1 && seg == 0:
			a = 0
		case r == 0 && seg == 1:
			a = 0
		case r == 1 && seg == 1:
			a = negZero
		}
		b := float64(r) - 30
		switch {
		case seg == 0 && r == 5:
			b = math.Inf(-1)
		case seg == 0 && r == 6:
			b = math.Inf(1)
		case seg == 1:
			b = math.Inf(1)
		}
		c := float64(i%17) - 8
		if i%3 == 0 || seg == 2 {
			c = math.NaN()
		}
		if err := s.Append(a, b, c, []string{"x", "y"}[i%2]); err != nil {
			t.Fatalf("Append row %d: %v", i, err)
		}
	}
	return s
}

func TestZonesRoundTripExactlyThroughColdOpen(t *testing.T) {
	dir := t.TempDir()
	s := zoneEdgeStore(t, dir, Options{})
	var want [][]zone
	for _, sg := range s.Snapshot().segs {
		want = append(want, sg.zones)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		seg, col int
		want     zone
	}{
		{0, 0, zone{negZero, 63}},
		{1, 0, zone{0, 63}},
		{0, 1, zone{math.Inf(-1), math.Inf(1)}},
		{1, 1, zone{math.Inf(1), math.Inf(1)}},
		{2, 2, emptyZone},
		{0, 3, emptyZone},
	} {
		if got := want[c.seg][c.col]; !got.identical(c.want) {
			t.Errorf("sealed segment %d column %d zone = %v, want %v", c.seg, c.col, got, c.want)
		}
	}

	r, err := Open(dir, Options{MemCap: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	segs := r.Snapshot().segs
	if len(segs) != len(want) {
		t.Fatalf("cold open has %d segments, want %d", len(segs), len(want))
	}
	for i, sg := range segs {
		for j := range want[i] {
			if !sg.zones[j].identical(want[i][j]) {
				t.Errorf("segment %d column %d: cold zone %v, sealed %v", i, j, sg.zones[j], want[i][j])
			}
		}
		// The decode check passes on honest data.
		if _, err := sg.load(); err != nil {
			t.Errorf("segment %d: load: %v", i, err)
		}
	}
}

// TestNumRangeColdCappedNeedsNoDecode pins that NumRange on a cold-opened,
// capped store answers from the zone maps on the handles — zero spilled
// reads — and equals a plain comparison sweep over the materialized rows.
func TestNumRangeColdCappedNeedsNoDecode(t *testing.T) {
	for _, tc := range []struct {
		name   string
		create func(t *testing.T, dir string) *Store
	}{
		{"trial", func(t *testing.T, dir string) *Store { return createPersistStore(t, dir, persistTestRows, Options{}) }},
		{"edge", func(t *testing.T, dir string) *Store { return zoneEdgeStore(t, dir, Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.create(t, dir).Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			r, err := Open(dir, Options{MemCap: 32 << 10})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer r.Close()
			snap := r.Snapshot()
			got := map[int]zone{}
			for j, a := range snap.Attrs() {
				if a.Kind == dataset.Numeric {
					lo, hi := snap.NumRange(j)
					got[j] = zone{lo, hi}
				}
			}
			if reads := r.TierStats().PagerMisses; reads != 0 {
				t.Fatalf("NumRange on a cold store performed %d spilled reads, want 0", reads)
			}
			m := snap.Materialize()
			for j, g := range got {
				lo, hi := math.Inf(1), math.Inf(-1)
				for i := 0; i < m.Rows(); i++ {
					v := m.Float(i, j)
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				if !g.identical(zone{lo, hi}) {
					t.Errorf("column %d: NumRange = [%v, %v], sweep = [%v, %v]", j, g.min, g.max, lo, hi)
				}
			}
		})
	}
}

// TestZoneSegmentDisagreementIsDecodeError pins that a manifest zone the
// segment file does not bear out fails the segment's decode with an error.
func TestZoneSegmentDisagreementIsDecodeError(t *testing.T) {
	dir := t.TempDir()
	if err := createPersistStore(t, dir, 3*persistSegSize, Options{}).Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	editNewestManifest(t, dir, func(m *manifest) {
		z := &m.Segments[2].Zones[0]
		z[1] = math.Float64bits(math.Float64frombits(z[1]) + 1) // still a valid interval
	})
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	segs := r.Snapshot().segs
	if _, err := segs[1].load(); err != nil {
		t.Fatalf("untouched segment 1: load: %v", err)
	}
	if _, err := segs[2].load(); err == nil || !strings.Contains(err.Error(), "zone") {
		t.Fatalf("segment 2 with a wrong zone: load = %v, want a zone disagreement error", err)
	}
}
