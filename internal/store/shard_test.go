package store

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/par"
)

// segOrdinal recovers a sealed segment's ordinal from its base row.
func (s *Snapshot) segOrdinal(sg *segment) int { return sg.base / s.store.segSize }

// checkShardDecomposition asserts the snapshot's per-shard lists are a
// partition of its segment list with the deterministic shardOf assignment
// and ascending base order within each shard.
func checkShardDecomposition(t *testing.T, snap *Snapshot) {
	t.Helper()
	seen := make(map[*segment]bool)
	for sh, segs := range snap.byShard {
		lastBase := -1
		for _, sg := range segs {
			if seen[sg] {
				t.Fatalf("segment base %d appears in more than one shard", sg.base)
			}
			seen[sg] = true
			if got := shardOf(snap.segOrdinal(sg), snap.Shards()); got != sh {
				t.Fatalf("segment %d in shard %d, shardOf says %d", snap.segOrdinal(sg), sh, got)
			}
			if sg.base <= lastBase {
				t.Fatalf("shard %d segment bases not ascending: %d after %d", sh, sg.base, lastBase)
			}
			lastBase = sg.base
		}
	}
	if len(seen) != len(snap.segs) {
		t.Fatalf("shards hold %d segments, snapshot has %d", len(seen), len(snap.segs))
	}
	for _, sg := range snap.segs {
		if !seen[sg] {
			t.Fatalf("segment base %d missing from every shard", sg.base)
		}
	}
}

// TestShardAssignmentDeterministic is the property test for the
// segment→shard assignment: every snapshot of a store decomposes its
// segments by the same pure shardOf function, so a segment never moves
// between shards as the store grows, and snapshots pinned before an ingest
// keep their per-shard lists bit-for-bit.
func TestShardAssignmentDeterministic(t *testing.T) {
	s, err := NewSharded(testSchema(), 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", s.Shards())
	}
	snaps := []*Snapshot{s.Snapshot()}
	for i := 0; i < 40*64; i++ {
		s.mustAppendRow(t, i)
		if i%777 == 0 {
			snaps = append(snaps, s.Snapshot())
		}
	}
	snaps = append(snaps, s.Snapshot())
	assigned := make(map[int]int) // segment ordinal → shard, across all snapshots
	for _, snap := range snaps {
		checkShardDecomposition(t, snap)
		for sh, segs := range snap.byShard {
			for _, sg := range segs {
				ord := snap.segOrdinal(sg)
				if prev, ok := assigned[ord]; ok && prev != sh {
					t.Fatalf("segment %d moved from shard %d to %d across snapshots", ord, prev, sh)
				}
				assigned[ord] = sh
			}
		}
	}
	if len(assigned) != 40 {
		t.Fatalf("saw %d sealed segments, want 40", len(assigned))
	}
	// A pinned snapshot's shard lists are untouched by later ingest.
	early := s.Snapshot()
	wantSegs := len(early.segs)
	for i := 0; i < 10*64; i++ {
		s.mustAppendRow(t, i)
	}
	if len(early.segs) != wantSegs {
		t.Fatalf("pinned snapshot grew from %d to %d segments", wantSegs, len(early.segs))
	}
	checkShardDecomposition(t, early)
	checkShardDecomposition(t, s.Snapshot())

	// A second store with the same shard count assigns identically.
	s2, err := NewSharded(testSchema(), 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40*64; i++ {
		s2.mustAppendRow(t, i)
	}
	for sh, segs := range s2.Snapshot().byShard {
		for _, sg := range segs {
			ord := sg.base / 64
			if assigned[ord] != sh {
				t.Fatalf("store 2 puts segment %d in shard %d, store 1 used %d", ord, sh, assigned[ord])
			}
		}
	}
}

// batchShapes is the query-shape zoo the batched path must agree with the
// single-query path on: unconstrained, selective ranges, NaN comparisons,
// empty-string and unknown-string categories, negations, contradictions.
func batchShapes() [][]Cond {
	return [][]Cond{
		nil, // unconstrained: every row
		{{Col: "x", Op: Ge, V: 5}, {Col: "x", Op: Lt, V: 10}},
		{{Col: "x", Op: Eq, V: math.NaN()}}, // matches nothing
		{{Col: "x", Op: Ne, V: math.NaN()}}, // matches everything, incl. NaN
		{{Col: "c", Op: Eq, S: "a"}},
		{{Col: "c", Op: Eq, Str: true}}, // empty string, present in data
		{{Col: "c", Op: Ne, S: "zzz"}},  // unknown dictionary string
		{{Col: "d", Op: Eq, S: "p"}, {Col: "y", Op: Lt, V: 0}},
		{{Col: "x", Op: Lt, V: 3}, {Col: "x", Op: Gt, V: 17}}, // contradiction
		{{Col: "x", Op: Eq, V: 7}, {Col: "c", Op: Ne, S: "b"}, {Col: "d", Op: Eq, S: "q"}},
	}
}

// sameBits asserts two bitmaps are word-identical.
func sameBits(t *testing.T, label string, got, want *Bitmap) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: rows %d vs %d", label, got.n, want.n)
	}
	for w := range want.words {
		if got.words[w] != want.words[w] {
			t.Fatalf("%s: bitmaps differ at word %d", label, w)
		}
	}
}

// TestEvalBatchMatchesEval pins the batched path to the single-query path:
// for every query shape, at several worker counts, EvalBatch's bitmap is
// word-identical to Eval's, EvalScan's, and the naive reference.
func TestEvalBatchMatchesEval(t *testing.T) {
	d := synthRows(5000, 1)
	s, err := FromDatasetSharded(d, 128, 5)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	shapes := batchShapes()
	for _, w := range []int{1, 2, 8} {
		prev := par.SetWorkers(w)
		bms, err := snap.EvalBatch(shapes)
		if err != nil {
			t.Fatal(err)
		}
		for k, conds := range shapes {
			one, err := snap.Eval(conds)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := snap.EvalScan(conds)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("workers=%d shape=%d", w, k)
			sameBits(t, label+" batch-vs-eval", bms[k], one)
			sameBits(t, label+" batch-vs-scan", bms[k], scan)
			ref := bruteEval(d, conds)
			for i, want := range ref {
				if bms[k].Get(i) != want {
					t.Fatalf("%s: row %d = %v, reference %v", label, i, bms[k].Get(i), want)
				}
			}
		}
		par.SetWorkers(prev)
	}
	// One uncompilable query fails the whole batch, naming its index.
	if _, err := snap.EvalBatch([][]Cond{nil, {{Col: "nope", Op: Eq, V: 1}}}); err == nil {
		t.Fatal("EvalBatch with unknown column succeeded")
	}
}

// TestRepublishSameRowsBumpsVersion is the regression test for version
// aliasing: re-publishing at an unchanged row count must still advance the
// version, or answer-cache and noise keys computed against different
// content would collide.
func TestRepublishSameRowsBumpsVersion(t *testing.T) {
	s, err := New(testSchema(), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.mustAppendRow(t, i)
	}
	before := s.Snapshot()
	s.mu.Lock()
	s.publishLocked() // what a future delete/compact/rebuild path would do
	s.mu.Unlock()
	after := s.Snapshot()
	if after.Rows() != before.Rows() {
		t.Fatalf("row count moved: %d vs %d", after.Rows(), before.Rows())
	}
	if after.Version() <= before.Version() {
		t.Fatalf("version %d did not advance past %d at equal row count", after.Version(), before.Version())
	}
}

// serialMatch is a deliberately serial, accessor-level reference evaluator
// over a pinned snapshot — independent of the compiled scan, the planner
// and the worker pool.
func serialMatch(snap *Snapshot, conds []Cond) []bool {
	out := make([]bool, snap.Rows())
	for i := range out {
		ok := true
		for _, c := range conds {
			j := snap.Index(c.Col)
			if snap.Attrs()[j].Kind == dataset.Numeric {
				v := snap.Float(i, j)
				switch c.Op {
				case Lt:
					ok = v < c.V
				case Le:
					ok = v <= c.V
				case Gt:
					ok = v > c.V
				case Ge:
					ok = v >= c.V
				case Eq:
					ok = v == c.V
				case Ne:
					ok = v != c.V
				}
			} else {
				eq := snap.Cat(i, j) == c.S
				ok = (c.Op == Eq) == eq
			}
			if !ok {
				break
			}
		}
		out[i] = ok
	}
	return out
}

// TestShardedEvalHammer runs concurrent ingest against sharded Eval and
// EvalBatch at workers {1, 2, 8}, asserting every answer is byte-identical
// to a serial accessor-level reference over the same pinned snapshot (and
// that Sum agrees bit-for-bit with a serial ascending-row summation).
// Meant to run under -race.
func TestShardedEvalHammer(t *testing.T) {
	d := synthRows(1000, 2)
	s, err := FromDatasetSharded(d, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	conds := []Cond{{Col: "x", Op: Ge, V: 4}, {Col: "x", Op: Lt, V: 12}}
	conds2 := []Cond{{Col: "c", Op: Ne, S: "a"}, {Col: "y", Op: Ge, V: 0}}
	yj := s.Index("y")
	check := func(snap *Snapshot, bm *Bitmap, cc []Cond, label string) {
		ref := serialMatch(snap, cc)
		for i, want := range ref {
			if bm.Get(i) != want {
				t.Errorf("%s: row %d = %v, serial reference %v", label, i, bm.Get(i), want)
				return
			}
		}
		var want float64
		for i, on := range ref {
			if on {
				want += snap.Float(i, yj)
			}
		}
		if got := snap.Sum(bm, yj); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Sum %x, serial reference %x", label, math.Float64bits(got), math.Float64bits(want))
		}
	}
	for _, w := range []int{1, 2, 8} {
		prev := par.SetWorkers(w)
		var stop atomic.Bool
		var ingest, readers sync.WaitGroup
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			// Bounded so pinned snapshots stay small enough for the O(rows)
			// serial reference; the stop flag just ends the phase early once
			// every reader is done.
			for i := 0; i < 4000 && !stop.Load(); i++ {
				if err := s.Append(float64(i%20), float64(i)*0.25, "b", "q"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for g := 0; g < 3; g++ {
			readers.Add(1)
			go func(g int) {
				defer readers.Done()
				for iter := 0; iter < 8; iter++ {
					snap := s.Snapshot()
					bm, err := snap.Eval(conds)
					if err != nil {
						t.Error(err)
						return
					}
					check(snap, bm, conds, fmt.Sprintf("workers=%d g=%d iter=%d eval", w, g, iter))
					bms, err := snap.EvalBatch([][]Cond{conds, conds2})
					if err != nil {
						t.Error(err)
						return
					}
					check(snap, bms[0], conds, fmt.Sprintf("workers=%d g=%d iter=%d batch0", w, g, iter))
					check(snap, bms[1], conds2, fmt.Sprintf("workers=%d g=%d iter=%d batch1", w, g, iter))
				}
			}(g)
		}
		readers.Wait()
		stop.Store(true)
		ingest.Wait()
		par.SetWorkers(prev)
	}
	gets, news := s.ScratchStats()
	if gets == 0 || news == 0 || news > gets {
		t.Fatalf("scratch stats gets=%d news=%d", gets, news)
	}
}
