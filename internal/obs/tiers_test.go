package obs

import (
	"strings"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/store"
)

// TestStoreTierGaugesExposition pins the three tier gauges every serve
// binary surfaces at GET /metrics, and that building a store moves the
// resident gauge: a memory-only store counts entirely resident.
func TestStoreTierGaugesExposition(t *testing.T) {
	reg := NewRegistry()
	RegisterStoreTiers(reg)
	d, err := dataset.Synth("trial", 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	before, _, _ := store.TierGauges()
	st, err := store.FromDataset(d, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	after, _, _ := store.TierGauges()
	if after <= before {
		t.Fatalf("resident gauge did not grow: %d -> %d", before, after)
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{
		"store_segments_resident",
		"store_segments_spilled",
		"store_spilled_reads",
	} {
		if !strings.Contains(out, name+" ") {
			t.Errorf("exposition missing %s gauge:\n%s", name, out)
		}
	}
}
