package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/store"
)

func streamBodies(w *workload, seed uint64, c, n int) [][]byte {
	s := w.newStream(seed, c)
	out := make([][]byte, n)
	for i := range out {
		out[i] = body(s.next())
	}
	return out
}

func TestStreamsAreSeedDeterministic(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < clients; c++ {
			a := streamBodies(w, 7, c, 2000)
			b := streamBodies(w, 7, c, 2000)
			other := streamBodies(w, 8, c, 2000)
			same := 0
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("%s client %d: request %d differs between two streams of seed 7:\n%s\n%s", w.name, c, i, a[i], b[i])
				}
				if bytes.Equal(a[i], other[i]) {
					same++
				}
			}
			if same == len(a) {
				t.Errorf("%s client %d: seeds 7 and 8 give the same stream", w.name, c)
			}
		}
	}
}

func TestDistinctStreamsNeverRepeat(t *testing.T) {
	for _, name := range []string{"miss_1m", "spill_clustered"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < clients; c++ {
			s := w.newStream(3, c)
			seen := map[string]int{}
			for i := 0; i < 50000; i++ {
				k := canonical(s.next())
				if j, dup := seen[k]; dup {
					t.Fatalf("%s client %d: request %d repeats request %d: %s", name, c, i, j, k)
				}
				seen[k] = i
			}
		}
	}
}

func TestHotStreamDrawsOnlyWarmedShapes(t *testing.T) {
	w, err := lookupWorkload("hot_1m")
	if err != nil {
		t.Fatal(err)
	}
	if w.warmup < hotShapes {
		t.Fatalf("warm-up of %d requests cannot ask all %d shapes", w.warmup, hotShapes)
	}
	for c := 0; c < clients; c++ {
		s := w.newStream(5, c)
		warmed := map[string]bool{}
		for i := 0; i < w.warmup; i++ {
			warmed[canonical(s.next())] = true
		}
		if len(warmed) != hotShapes {
			t.Fatalf("client %d: warm-up asked %d distinct shapes, want %d", c, len(warmed), hotShapes)
		}
		for i := 0; i < 100000; i++ {
			if k := canonical(s.next()); !warmed[k] {
				t.Fatalf("client %d: measured request %d draws a shape the warm-up never asked: %s", c, i, k)
			}
		}
	}
}

func TestClusteredDatadirOrdering(t *testing.T) {
	w, err := lookupWorkload("spill_clustered")
	if err != nil {
		t.Fatal(err)
	}
	small := *w
	small.rows = 5*store.DefaultSegmentSize + 100
	d, err := servedDataset(&small, 9)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "data")
	st, err := store.CreateFromDataset(dir, d, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	footprint := st.TierStats().ResidentBytes
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = store.Open(dir, store.Options{MemCap: footprint / w.memCapDiv})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := checkClustered(st); err != nil {
		t.Fatal(err)
	}
	if ts := st.TierStats(); ts.Spilled == 0 {
		t.Errorf("a quarter-footprint memory cap left every segment resident: %+v", ts)
	}

	// The guard must catch rows that are not clustered.
	shuffled, err := dataset.Synth("trial", small.rows, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSegmentRanges(shuffled, shuffled.Index("height"), store.DefaultSegmentSize, 5); err == nil {
		t.Error("unclustered rows passed the segment-range guard")
	}
}
