package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"privacy3d/internal/par"
)

// Sharded scatter-gather execution. Sealed segments are partitioned into
// shards — goroutine-owned groups of segments — and a query scatters one
// task per non-empty shard (plus one for the unindexed tail) instead of one
// task per segment. Each shard task walks its own segments sequentially,
// reusing one pooled scratch window across all of them, so the per-segment
// allocation and per-segment scheduling the flat fan-out paid are gone from
// the hot path.
//
// Determinism. The segment→shard assignment is a pure function of the
// segment's ordinal (shardOf), so it never moves as the store grows: new
// segments hash onto shards, existing ones stay put, and every snapshot
// pins the per-shard segment lists it was published with (copy-on-write at
// seal time, exactly like the flat segment list). Because every segment
// owns a disjoint word-aligned window of the snapshot bitmap, the shards
// write disjoint words and the gathered bitmap is exact — byte-identical to
// the single-threaded single-query path at any worker or shard count.
// Aggregates then run off the bitmap in ascending row order (Sum), so no
// float ever re-associates: the scatter parallelises predicate evaluation,
// never the summation order.

// DefaultShards is the number of segment shards a store partitions sealed
// segments across. Sixteen keeps at least two shards per worker at the
// benchmark's workers=8 sweep, so work stealing can balance uneven shards.
const DefaultShards = 16

// shardOf maps a segment ordinal to its shard: a splitmix64 finalizer over
// the ordinal, reduced modulo the shard count. Pure and stateless, so the
// assignment is identical across snapshots, stores and processes.
func shardOf(seg, shards int) int {
	x := uint64(seg) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// rebuildShardsLocked regroups the sealed segment list into fresh per-shard
// lists (ascending base within each shard, since segments are visited in
// ordinal order). The old lists are never mutated — snapshots pinned before
// a seal keep reading them.
func (s *Store) rebuildShardsLocked() {
	byShard := make([][]*segment, s.shards)
	for i, sg := range s.segs {
		sh := shardOf(i, s.shards)
		byShard[sh] = append(byShard[sh], sg)
	}
	s.byShard = byShard
}

// Shards returns the store's shard count.
func (s *Store) Shards() int { return s.shards }

// Shards returns the shard count of the snapshot's store.
func (s *Snapshot) Shards() int { return s.store.shards }

// getScratch leases a segment-width scratch window from the store's pool;
// putScratch returns it. The evaluation kernel (segData.eval) zeroes
// scratch before each use, so a dirty reused window is fine.
func (s *Store) getScratch() *[]uint64 {
	s.scratchGets.Add(1)
	return s.scratch.Get().(*[]uint64)
}

func (s *Store) putScratch(ws *[]uint64) { s.scratch.Put(ws) }

// ScratchStats reports the scratch pool's lifetime leases and how many of
// them had to allocate a fresh window (pool miss). The pooled-bitmap hit
// rate gauge is (gets-news)/gets.
func (s *Store) ScratchStats() (gets, news int64) {
	return s.scratchGets.Load(), s.scratchNews.Load()
}

// SegmentEvals reports the cumulative number of sealed segments scheduled
// for evaluation across all Eval/EvalScan/EvalBatch calls — the raw work
// volume the shards carried.
func (s *Store) SegmentEvals() int64 { return s.segEvals.Load() }

// scatter fans perSeg out across the snapshot's shards on the default
// worker pool: one task per non-empty shard, each walking its segments in
// ascending base order with one pooled scratch window, plus one task for
// the unindexed tail. Each segment's decoded data is acquired once around
// the perSeg call — the single point where the resident/spilled tiers
// converge for query execution — so a spilled segment is decoded once per
// shard visit no matter how many conjunctions perSeg evaluates against it.
// The per-shard segment counts are gathered in shard order (par.MapTasks)
// and folded into the store's work counter with a single atomic add — no
// per-segment synchronisation anywhere. The first segment that fails to
// acquire (an unreadable spilled file) is the returned error; once it is
// set, every task stops acquiring, and the caller must discard whatever
// perSeg wrote.
func (s *Snapshot) scatter(perSeg func(sg *segment, d *segData, scratch []uint64), tail func()) error {
	active := make([]int, 0, len(s.byShard))
	for i := range s.byShard {
		if len(s.byShard[i]) > 0 {
			active = append(active, i)
		}
	}
	tasks := len(active)
	if s.tailLen > 0 {
		tasks++
	}
	if tasks == 0 {
		return nil
	}
	var failed atomic.Pointer[error]
	counts := par.MapTasks(par.Default(), tasks, func(t int) int {
		if t >= len(active) {
			tail()
			return 0
		}
		segs := s.byShard[active[t]]
		sw := s.store.getScratch()
		defer s.store.putScratch(sw)
		for i, sg := range segs {
			if failed.Load() != nil {
				return i
			}
			d, err := sg.acquire()
			if err != nil {
				keepFirst(&failed, err)
				return i
			}
			perSeg(sg, d, *sw)
		}
		return len(segs)
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	s.store.segEvals.Add(int64(total))
	if err := failed.Load(); err != nil {
		return *err
	}
	return nil
}

// readAll acquires every sealed segment and evaluates nothing. A query
// with no conditions selects every row, so its answer (Sum, Float) reads
// every segment; acquiring them here first makes an unreadable spilled
// file that query's error, before any protection state moves, rather than
// a panic in the reader.
func (s *Snapshot) readAll() error {
	return s.scatter(func(*segment, *segData, []uint64) {}, func() {})
}

// keepFirst stores err in first unless an error is already there. Its
// parameter moves to the heap only when it is called: taking the address
// of scatter's own loop variable would allocate once per segment.
func keepFirst(first *atomic.Pointer[error], err error) { first.CompareAndSwap(nil, &err) }

// evalTail scans the unindexed open tail with the compiled conjunction.
func (s *Snapshot) evalTail(cc []compiledCond, bm *Bitmap) {
	base := len(s.segs) * s.store.segSize
	for i := 0; i < s.tailLen; i++ {
		if s.matchTail(cc, i) {
			bm.Set(base + i)
		}
	}
}

// window returns the segment's word-aligned window of the bitmap's words.
func (sg *segment) window(words []uint64) []uint64 {
	return words[sg.base>>6 : (sg.base+sg.n+63)>>6]
}

// Eval answers the conjunction via the segment indexes. It is EvalBatch's
// one-query case, so the single-query and batched paths share one scatter;
// see evalCompiled for the evaluation itself. An uncompilable conjunction
// fails with compile's error, unwrapped. A spilled segment whose file fails
// its checksum or decode fails the query with an error wrapping
// ErrUnreadable that names the file; no bitmap is returned.
func (s *Snapshot) Eval(conds []Cond) (*Bitmap, error) {
	cc, err := s.compile(conds)
	if err != nil {
		return nil, err
	}
	out, err := s.evalCompiled([][]compiledCond{cc})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// EvalScan answers the conjunction by a compiled row-at-a-time sweep over
// every segment and the tail — the reference path the indexes must stay
// byte-identical to, and the scan side of cmd/bench's speedup gate. It
// scatters over the same shards as Eval, so indexed-vs-scan benchmarks
// compare index structure, not scheduling. Unreadable segments fail it as
// they fail Eval.
func (s *Snapshot) EvalScan(conds []Cond) (*Bitmap, error) {
	cc, err := s.compile(conds)
	if err != nil {
		return nil, err
	}
	bm := NewBitmap(s.rows)
	if len(cc) == 0 {
		if err := s.readAll(); err != nil {
			return nil, err
		}
		bm.SetAll()
		return bm, nil
	}
	if err := s.scatter(
		func(sg *segment, d *segData, _ []uint64) {
			w := sg.window(bm.words)
			for i := 0; i < sg.n; i++ {
				if d.matchRow(cc, i) {
					setBit(w, uint32(i))
				}
			}
		},
		func() { s.evalTail(cc, bm) },
	); err != nil {
		return nil, err
	}
	return bm, nil
}

// EvalBatch evaluates a matrix of conjunctions in one column sweep per
// shard; each bitmap is word-identical to the corresponding single-query
// Eval. An uncompilable conjunction fails the whole batch (callers
// validating queries individually should compile them first), and so does
// an unreadable segment, as in Eval.
func (s *Snapshot) EvalBatch(batch [][]Cond) ([]*Bitmap, error) {
	ccs := make([][]compiledCond, len(batch))
	for k, conds := range batch {
		cc, err := s.compile(conds)
		if err != nil {
			return nil, fmt.Errorf("store: batch query %d: %w", k, err)
		}
		ccs[k] = cc
	}
	return s.evalCompiled(ccs)
}

// evalCompiled answers compiled conjunctions through the segment indexes.
// Each conjunction is planned once (range conditions on one column merge
// into a single interval), then one scatter visits every segment once and
// tests all planned conjunctions against it while its columns and indexes
// are hot — the cache-locality amortisation the PIR AnswerBatch kernel gets
// from answering a query matrix in one database pass. Per segment, the
// dictionary's ends, then binary searches of the dictionary resolve each
// conjunct to a permutation range, and each range costs min(k, n−k) bit
// writes (scatter the k matches or clear the n−k failures; see
// segData.eval) into the segment's disjoint window of the query's bitmap;
// the unindexed tail falls back to a compiled scan. The gathered bitmaps
// are exact, so the parallelism cannot perturb any answer: byte-identical
// at every worker and shard count.
func (s *Snapshot) evalCompiled(ccs [][]compiledCond) ([]*Bitmap, error) {
	out := make([]*Bitmap, len(ccs))
	plans := make([]*plan, len(ccs))
	active := make([]int, 0, len(ccs)) // queries that must visit segments
	selectAll := false                 // some query has no conditions
	for k, cc := range ccs {
		out[k] = NewBitmap(s.rows)
		if len(cc) == 0 {
			out[k].SetAll()
			selectAll = true
			continue
		}
		if plans[k] = planConds(cc); !plans[k].empty {
			active = append(active, k)
		}
	}
	if len(active) == 0 && !selectAll {
		return out, nil
	}
	// The sweep acquires every segment even when only selectAll queries
	// remain (active is empty): see readAll.
	if err := s.scatter(
		func(sg *segment, d *segData, scratch []uint64) {
			for _, k := range active {
				d.eval(plans[k], sg.window(out[k].words), scratch)
			}
		},
		func() {
			for _, k := range active {
				s.evalTail(ccs[k], out[k])
			}
		},
	); err != nil {
		return nil, err
	}
	return out, nil
}

// shardState is the store's sharded-execution state, embedded in Store so
// the constructor can initialise it in one place.
type shardState struct {
	shards  int
	byShard [][]*segment // shard → sealed segments ascending by base; replaced at seal

	scratch     sync.Pool // *[]uint64 of segSize/64 words
	scratchGets atomic.Int64
	scratchNews atomic.Int64
	segEvals    atomic.Int64
}

// initShards sets up the shard state for a store with the given segment
// size. shards ≤ 0 selects DefaultShards.
func (st *shardState) initShards(shards, segSize int) {
	if shards <= 0 {
		shards = DefaultShards
	}
	st.shards = shards
	st.byShard = make([][]*segment, shards)
	words := segSize >> 6
	st.scratch.New = func() any {
		st.scratchNews.Add(1)
		ws := make([]uint64, words)
		return &ws
	}
}
