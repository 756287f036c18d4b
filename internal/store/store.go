// Package store is the columnar segment engine behind the statistical
// server: an immutable, column-oriented row store with per-segment
// dictionary-coded columns, their code-sorted permutations and zone maps,
// built so a compiled predicate
// evaluates as index range scans intersected into a row bitmap instead of
// the row-at-a-time full-table sweep that capped the server at toy sizes.
//
// Layout. Rows are ingested append-only into fixed-size segments
// (DefaultSegmentSize rows, a multiple of 64 of at most MaxSegmentSize).
// The open tail holds numeric attributes as []float64 and categorical
// ones as []uint32 codes against a store-wide append-only dictionary.
// When a segment fills it is sealed: every column becomes a sorted
// per-segment dictionary of its distinct values plus a 16-bit code per
// row, and a code-sorted permutation with the start of each code's rows
// indexes it — all in linear time (a radix sort, then one counting pass)
// — and the segment never changes again. Data recorded at a fixed
// precision has a few hundred distinct values per segment column, so a
// sealed row costs about 28 bytes where raw values and 32-bit
// permutations cost 68. The open tail stays unindexed and is evaluated by
// a compiled scan — it is at most one segment of rows.
//
// Snapshots. Because sealed segments are immutable, tail buffers are
// never recycled (sealing allocates fresh ones) and ingest writes only
// past the published tail length, a Snapshot is just the segment list plus
// the tail buffers and their length at pin time: zero-copy, always
// consistent, and completely unaffected by concurrent ingest. The
// statistical server pins one Snapshot per query, the auditor reasons over
// the pinned version, and masked releases materialize it — audits see a
// consistent database while ingest continues.
//
// Evaluation. Eval answers a conjunction of conditions with one bitmap per
// snapshot: per segment, each condition resolves to a permutation range
// (the dictionary's ends for whole-segment skip/accept, else a binary
// search of the dictionary and a lookup of where the code's rows start)
// whose rows are set in the
// segment's word-aligned bitmap window, and conditions intersect
// word-parallel (Bitmap). Aggregates then
// run off the bitmap: COUNT is a popcount, SUM/AVG a bitmap-driven sweep
// of the column in ascending row order — the identical float64 summation
// order as the scan path, so indexed answers are byte-identical to it.
// Sealed segments are partitioned into goroutine-owned shards and queries
// scatter one task per shard rather than per segment; see shard.go for the
// execution model and the determinism argument.
//
// Tiers. A store opened with a data directory (Create/Open) is durable and
// two-tiered: sealing also writes the segment — its dictionaries and row
// codes, CRC-checksummed — to disk, and under Options.MemCap decoded
// segments spill out of memory and are decoded again on demand from one
// checksum-verified read of their file; the resident tier is the only
// cache. Every reader
// goes through segment.acquire, which is tier-blind, so answers are
// byte-identical wherever the bytes live. Zone maps stay on the segment
// handle (and in the manifest), so NumRange never decodes.
// Durability is manifest-based: immutable data files, atomic-rename
// commits, recovery to the last fully-validated manifest; see manifest.go
// for the file layout and tier.go for Create/Open/recovery.
package store

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"

	"privacy3d/internal/dataset"
)

// DefaultSegmentSize is the number of rows per sealed segment. Every size
// must be a multiple of 64 so each segment owns a word-aligned window of
// the snapshot bitmap (parallel segment evaluation then writes disjoint
// words), and at most MaxSegmentSize.
const DefaultSegmentSize = 8192

// Op is a comparison operator, ordinal-compatible with sdcquery's.
type Op int

const (
	Lt Op = iota // <
	Le           // <=
	Gt           // >
	Ge           // >=
	Eq           // ==
	Ne           // !=
)

// Cond is one predicate condition: column OP value. Numeric conditions use
// V; string conditions use S with Str set (Str disambiguates the empty
// string from an absent value, the same contract as sdcquery.Cond).
type Cond struct {
	Col string
	Op  Op
	V   float64
	S   string
	Str bool
}

// isStr reports whether the condition carries a string value.
func (c Cond) isStr() bool { return c.Str || c.S != "" }

// compiledCond is a condition resolved against the schema: column index,
// kind, and (for categorical conditions) the dictionary code.
type compiledCond struct {
	col     int
	numeric bool
	op      Op
	v       float64
	code    uint32
	codeOK  bool // S is present in the dictionary; if not, Eq matches nothing and Ne everything
}

// dict is the store-wide string dictionary: append-only, so codes handed to
// sealed segments never change meaning and snapshot readers need no copy.
type dict struct {
	mu    sync.RWMutex
	codes map[string]uint32
	strs  []string
}

func newDict() *dict { return &dict{codes: map[string]uint32{}} }

func (d *dict) lookup(s string) (uint32, bool) {
	d.mu.RLock()
	c, ok := d.codes[s]
	d.mu.RUnlock()
	return c, ok
}

func (d *dict) intern(s string) uint32 {
	d.mu.Lock()
	c, ok := d.codes[s]
	if !ok {
		c = uint32(len(d.strs))
		d.codes[s] = c
		d.strs = append(d.strs, s)
	}
	d.mu.Unlock()
	return c
}

func (d *dict) str(c uint32) string {
	d.mu.RLock()
	s := d.strs[c]
	d.mu.RUnlock()
	return s
}

// Store is the append-only columnar engine. Ingest (Append/AppendDataset)
// is serialized on an internal mutex; Snapshot is a lock-free atomic load
// and may be called from any number of readers while ingest continues.
type Store struct {
	attrs   []dataset.Attribute
	segSize int
	dict    *dict
	tier    *tierState   // tier bookkeeping; dir == "" for memory-only stores
	dicts   *dictBuilder // every seal's scratch: seals run one at a time, under mu

	mu       sync.Mutex // serializes ingest, snapshot publication, and commits
	segs     []*segment // sealed, immutable; replaced (never appended in place) on seal
	tailNums [][]float64
	tailCats [][]uint32
	tailLen  int
	version  uint64 // (epoch<<32)|publish counter; bumped by publishLocked
	closed   bool

	// Durable-store state (zero for memory-only stores). epoch counts
	// Open/Create incarnations and occupies the version's high 32 bits, so
	// snapshot versions — and the answer-cache and noise keys derived from
	// them — can never collide across restarts even when a crash discarded
	// unpublished commits.
	epoch         uint64
	manifestSeq   uint64
	lockF         *os.File
	dictF         *os.File
	dictCommitted int   // dictionary entries flushed to DICT
	dictBytes     int64 // committed DICT prefix length
	dictCRC       uint32
	// lastTail is the tail the last successful commit named, which the
	// next commit names again if the tail has not changed; prevTail is the
	// tail file of the commit before it. The two kept manifests reference
	// these tail files, which may be one file.
	lastTail committedTail
	prevTail string
	// sweep makes the next commit list the directory and remove every file
	// the two kept manifests do not reference (sweepLocked); set for the
	// commits of Open and Create and after a commit that failed.
	sweep bool
	// listing is the directory listing Open recovered from, which its
	// commit's sweep uses instead of listing again; nil otherwise.
	listing []string

	shardState

	snap atomic.Pointer[Snapshot]
}

// New creates an empty store with the given schema and the default shard
// count. segSize 0 selects DefaultSegmentSize; other values must be
// multiples of 64 in [64, MaxSegmentSize].
func New(attrs []dataset.Attribute, segSize int) (*Store, error) {
	return NewSharded(attrs, segSize, 0)
}

// NewSharded creates an empty store partitioned into the given number of
// segment shards (≤ 0 selects DefaultShards). The shard count is fixed for
// the store's lifetime: segment→shard assignment is deterministic in it.
func NewSharded(attrs []dataset.Attribute, segSize, shards int) (*Store, error) {
	s, err := newStore(attrs, segSize, shards, "", Options{})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.publishLocked()
	s.mu.Unlock()
	return s, nil
}

// newStore builds a store shell (schema, shard state, tier bookkeeping,
// fresh tail) without publishing a snapshot; Create/Open finish durable
// setup before the first publish.
func newStore(attrs []dataset.Attribute, segSize, shards int, dir string, opts Options) (*Store, error) {
	if segSize == 0 {
		segSize = DefaultSegmentSize
	}
	if err := checkSegmentSize(segSize); err != nil {
		return nil, err
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("store: schema needs at least one attribute")
	}
	if opts.MemCap < 0 {
		return nil, fmt.Errorf("store: negative memory cap %d", opts.MemCap)
	}
	s := &Store{
		attrs:   append([]dataset.Attribute(nil), attrs...),
		segSize: segSize,
		dict:    newDict(),
		dicts:   newDictBuilder(),
	}
	s.tier = &tierState{dir: dir, memCap: opts.MemCap, attrs: s.attrs, segSize: segSize, files: map[int]*os.File{}}
	s.initShards(shards, segSize)
	s.freshTail()
	return s, nil
}

// FromDataset builds a store holding a copy of d's rows (column-wise bulk
// ingest; d is not retained).
func FromDataset(d *dataset.Dataset, segSize int) (*Store, error) {
	return FromDatasetSharded(d, segSize, 0)
}

// FromDatasetSharded is FromDataset with an explicit shard count (≤ 0
// selects DefaultShards).
func FromDatasetSharded(d *dataset.Dataset, segSize, shards int) (*Store, error) {
	s, err := NewSharded(d.Attrs(), segSize, shards)
	if err != nil {
		return nil, err
	}
	if err := s.AppendDataset(d); err != nil {
		return nil, err
	}
	return s, nil
}

// freshTail allocates new open-segment buffers, each a full segment long:
// rows land in slot tailLen, and every reader reads only [:tailLen] of
// its snapshot. Buffers are never reused after sealing — pinned snapshots
// keep reading the old ones.
func (s *Store) freshTail() {
	s.tailNums = make([][]float64, len(s.attrs))
	s.tailCats = make([][]uint32, len(s.attrs))
	for j, a := range s.attrs {
		if a.Kind == dataset.Numeric {
			s.tailNums[j] = make([]float64, s.segSize)
		} else {
			s.tailCats[j] = make([]uint32, s.segSize)
		}
	}
	s.tailLen = 0
}

// sealLocked freezes the full tail (segSize rows written) into a
// dictionary-coded, indexed immutable segment. A
// durable store also writes the segment's checksummed file (tmp + fsync +
// rename) before the segment becomes visible, so every sealed segment a
// manifest will ever reference is already safely on disk. The segment list
// is replaced, not appended in place, so snapshots holding the old slice
// header are unaffected.
func (s *Store) sealLocked() error {
	d := s.dicts.build(s.tailNums, s.tailCats)
	sg := &segment{
		base:  len(s.segs) * s.segSize,
		n:     d.n,
		ord:   len(s.segs),
		bytes: d.footprint(),
		zones: zonesOf(d),
		tier:  s.tier,
	}
	if s.tier.durable() {
		name := segFileName(sg.ord)
		size, crc, err := writeSegFile(s.tier.dir, name, sg.base, s.attrs, d)
		if err != nil {
			return err
		}
		sg.src = &fileSource{t: s.tier, ord: sg.ord, name: name, size: size, crc: crc}
	}
	sg.data.Store(d)
	s.tier.noteSealed(sg.bytes)
	segs := make([]*segment, len(s.segs)+1)
	copy(segs, s.segs)
	segs[len(s.segs)] = sg
	s.segs = segs
	s.rebuildShardsLocked()
	s.freshTail()
	return nil
}

// publishLocked installs the current state as the live snapshot and bumps
// the publish counter that becomes the snapshot's version. The counter —
// not the row count — is the version so that two publishes with equal row
// counts but different content (future delete/compact paths, FromDataset
// rebuilds) can never collide on answer-cache or noise keys. The snapshot
// shares the tail buffers as they are: ingest only writes slots at or
// past the published tailLen, which no snapshot reads.
func (s *Store) publishLocked() {
	s.version++
	s.snap.Store(&Snapshot{
		store:    s,
		segs:     s.segs,
		byShard:  s.byShard,
		version:  s.version,
		tailNums: s.tailNums,
		tailCats: s.tailCats,
		tailLen:  s.tailLen,
		rows:     len(s.segs)*s.segSize + s.tailLen,
	})
}

// Append ingests one row; vals must match the schema like dataset.Append
// (float64 or int for numeric attributes, string for categorical ones).
func (s *Store) Append(vals ...any) error {
	if len(vals) != len(s.attrs) {
		return fmt.Errorf("store: got %d values for %d attributes", len(vals), len(s.attrs))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append on closed store")
	}
	// The row is written straight into slot tailLen, which no snapshot
	// reads; tailLen moves only once the whole row is valid, so a rejected
	// row leaves nothing to undo.
	n := s.tailLen
	for j, v := range vals {
		if s.attrs[j].Kind == dataset.Numeric {
			switch x := v.(type) {
			case float64:
				s.tailNums[j][n] = x
			case int:
				s.tailNums[j][n] = float64(x)
			default:
				return fmt.Errorf("store: attribute %q is numeric, got %T", s.attrs[j].Name, v)
			}
		} else {
			str, ok := v.(string)
			if !ok {
				return fmt.Errorf("store: attribute %q is categorical, got %T", s.attrs[j].Name, v)
			}
			s.tailCats[j][n] = s.dict.intern(str)
		}
	}
	if n+1 < s.segSize {
		s.tailLen = n + 1
	} else {
		// A failed seal leaves the tail one short of a seal, so the
		// caller can retry.
		if err := s.sealLocked(); err != nil {
			return err
		}
		if err := s.commitSpillLocked(); err != nil {
			// The seal is consistent in memory but not yet durable; the
			// next successful commit (seal or Close) carries it.
			return err
		}
	}
	s.publishLocked()
	return nil
}

// commitSpillLocked commits the current sealed state of a durable store
// and re-balances the resident tier under the memory cap. A no-op for
// memory-only stores.
func (s *Store) commitSpillLocked() error {
	if !s.tier.durable() {
		return nil
	}
	if err := s.commitLocked(); err != nil {
		return err
	}
	s.spillLocked()
	return nil
}

// AppendDataset bulk-ingests every row of d (schema names and kinds must
// match), copying column-wise without per-value boxing. One snapshot is
// published at the end.
func (s *Store) AppendDataset(d *dataset.Dataset) error {
	if d.Cols() != len(s.attrs) {
		return fmt.Errorf("store: dataset has %d columns, store schema %d", d.Cols(), len(s.attrs))
	}
	for j, a := range s.attrs {
		da := d.Attr(j)
		if da.Name != a.Name || da.Kind != a.Kind {
			return fmt.Errorf("store: column %d is %s/%v, store schema %s/%v", j, da.Name, da.Kind, a.Name, a.Kind)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append on closed store")
	}
	sealed := false
	for r := 0; r < d.Rows(); {
		take := s.segSize - s.tailLen
		if rem := d.Rows() - r; take > rem {
			take = rem
		}
		for j, a := range s.attrs {
			if a.Kind == dataset.Numeric {
				copy(s.tailNums[j][s.tailLen:], d.NumColumn(j)[r:r+take])
			} else {
				tail := s.tailCats[j][s.tailLen:]
				for i, str := range d.CatColumn(j)[r : r+take] {
					tail[i] = s.dict.intern(str)
				}
			}
		}
		s.tailLen += take
		r += take
		if s.tailLen == s.segSize {
			if err := s.sealLocked(); err != nil {
				// Drop this block from the tail and publish the
				// consistent prefix: the earlier seals and the rows
				// before the block.
				s.tailLen -= take
				s.publishLocked()
				return err
			}
			sealed = true
		}
	}
	// One commit for the whole bulk ingest, not one per sealed segment.
	if sealed {
		if err := s.commitSpillLocked(); err != nil {
			s.publishLocked()
			return err
		}
	}
	s.publishLocked()
	return nil
}

// Snapshot pins the current version: an immutable view unaffected by any
// ingest that happens after the call. Lock-free.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Rows returns the current row count.
func (s *Store) Rows() int { return s.Snapshot().rows }

// Version returns the current version: a monotonic publish counter bumped
// on every snapshot publication, so it uniquely identifies the visible
// data even across publishes that leave the row count unchanged.
func (s *Store) Version() uint64 { return s.Snapshot().version }

// Attrs returns the schema. The returned slice must not be modified.
func (s *Store) Attrs() []dataset.Attribute { return s.attrs }

// SegmentSize returns the rows per sealed segment.
func (s *Store) SegmentSize() int { return s.segSize }

// Index returns the column index of the named attribute, or -1.
func (s *Store) Index(name string) int {
	for j, a := range s.attrs {
		if a.Name == name {
			return j
		}
	}
	return -1
}

// Snapshot is an immutable view of the store at pin time: the sealed
// segments plus a frozen prefix of the open tail — its buffers, read only
// up to tailLen. All methods are safe for
// concurrent use and never observe later ingest.
type Snapshot struct {
	store    *Store
	segs     []*segment
	byShard  [][]*segment // shard → sealed segments, pinned at publish
	version  uint64
	tailNums [][]float64
	tailCats [][]uint32
	tailLen  int
	rows     int
}

// Rows returns the snapshot's row count.
func (s *Snapshot) Rows() int { return s.rows }

// Version identifies the snapshot: the store's publish counter at pin
// time. Answer caches and noise keys embed it so answers computed against
// one version are never served for another — including publishes that kept
// the row count unchanged.
func (s *Snapshot) Version() uint64 { return s.version }

// Attrs returns the schema.
func (s *Snapshot) Attrs() []dataset.Attribute { return s.store.attrs }

// Index returns the column index of the named attribute, or -1.
func (s *Snapshot) Index(name string) int { return s.store.Index(name) }

// compile resolves conditions against the schema. The rules match the
// sdcquery compiled predicate exactly: unknown columns, ordered operators
// on categorical columns, and value/column kind mismatches are errors.
func (s *Snapshot) compile(conds []Cond) ([]compiledCond, error) {
	out := make([]compiledCond, len(conds))
	for i, c := range conds {
		j := s.store.Index(c.Col)
		if j < 0 {
			return nil, fmt.Errorf("store: unknown column %q", c.Col)
		}
		cc := compiledCond{col: j, op: c.Op}
		if c.Op < Lt || c.Op > Ne {
			return nil, fmt.Errorf("store: unknown operator %v", c.Op)
		}
		if s.store.attrs[j].Kind == dataset.Numeric {
			if c.isStr() {
				return nil, fmt.Errorf("store: string value %q for numeric column %q", c.S, c.Col)
			}
			cc.numeric = true
			cc.v = c.V
		} else {
			// Mirrors sdcquery's lenience: a fully zero-valued condition
			// (Str unset, S == "", V == 0) is an empty-string comparison;
			// only V != 0 is a kind mismatch.
			if !c.isStr() && c.V != 0 {
				return nil, fmt.Errorf("store: numeric value %g for categorical column %q", c.V, c.Col)
			}
			if c.Op != Eq && c.Op != Ne {
				return nil, fmt.Errorf("store: operator %v not valid for categorical column %q", c.Op, c.Col)
			}
			cc.code, cc.codeOK = s.store.dict.lookup(c.S)
		}
		out[i] = cc
	}
	return out, nil
}

// matchTail evaluates the compiled conjunction against tail row i < tailLen.
func (s *Snapshot) matchTail(cc []compiledCond, i int) bool {
	return matchRow(cc, s.tailNums, s.tailCats, i)
}

// matchRow is the compiled row-at-a-time evaluator over raw columns (the
// open tail); segData.matchRow is its twin over a sealed segment.
func matchRow(cc []compiledCond, nums [][]float64, cats [][]uint32, i int) bool {
	for _, c := range cc {
		if c.numeric && !c.matchNum(nums[c.col][i]) || !c.numeric && !c.matchCode(cats[c.col][i]) {
			return false
		}
	}
	return true
}

// matchNum tests one numeric value. Float comparisons give NaN exactly
// the semantics the index path reproduces (NaN fails everything except
// !=).
func (c *compiledCond) matchNum(v float64) bool {
	switch c.op {
	case Lt:
		return v < c.v
	case Le:
		return v <= c.v
	case Gt:
		return v > c.v
	case Ge:
		return v >= c.v
	case Eq:
		return v == c.v
	}
	return v != c.v
}

// matchCode tests one categorical code.
func (c *compiledCond) matchCode(code uint32) bool {
	return (c.codeOK && code == c.code) == (c.op == Eq)
}

// Count returns the number of rows set in bm (popcount).
func (s *Snapshot) Count(bm *Bitmap) int { return bm.Count() }

// Sum adds up column col over the rows of bm in ascending row order — the
// identical float64 summation order as a sequential scan, which is what
// keeps indexed SUM/AVG answers byte-identical to the scan path. Zero
// words contribute nothing to the sum, so they are skipped before any bit
// iteration, and a segment whose whole window is zero is skipped before
// its column is even touched — sparse selections over wide segments pay
// for the rows they select, not for the full sweep. Adding zero terms in
// order and skipping them produce the same float64, so the skips cannot
// change a single byte of the answer. It panics if col is not numeric,
// mirroring dataset.NumColumn. The segments it reads are those the Eval
// that produced bm read and verified; one that has become unreadable
// since makes Sum panic (see segment.mustAcquire).
func (s *Snapshot) Sum(bm *Bitmap, col int) float64 {
	if s.store.attrs[col].Kind != dataset.Numeric {
		panic(fmt.Sprintf("store: attribute %q is not numeric", s.store.attrs[col].Name))
	}
	var sum float64
	for _, sg := range s.segs {
		words := sg.window(bm.words)
		if !anyWord(words) {
			continue
		}
		c := &sg.mustAcquire().nums[col]
		dict := c.dict
		for wi, w := range words {
			if w == 0 {
				continue
			}
			// The word's 64 row codes as an array: a row index masked to
			// 6 bits needs no bounds check.
			codes := (*[64]uint16)(c.codes[wi<<6:])
			for w != 0 {
				sum += dict[codes[bits.TrailingZeros64(w)&63]]
				w &= w - 1
			}
		}
	}
	if s.tailLen > 0 {
		base := len(s.segs) * s.store.segSize
		for i, v := range s.tailNums[col][:s.tailLen] {
			if bm.Get(base + i) {
				sum += v
			}
		}
	}
	return sum
}

// Float returns the numeric value at (row i, column col). It panics on a
// non-numeric column or out-of-range row, mirroring slice indexing, and on
// an unreadable spilled segment, like Sum.
func (s *Snapshot) Float(i, col int) float64 {
	if sg := i / s.store.segSize; sg < len(s.segs) {
		return s.segs[sg].mustAcquire().nums[col].at(i % s.store.segSize)
	}
	return s.tailNums[col][:s.tailLen][i-len(s.segs)*s.store.segSize]
}

// Cat returns the categorical value at (row i, column col). It panics on
// an unreadable spilled segment, like Sum.
func (s *Snapshot) Cat(i, col int) string {
	var code uint32
	if sg := i / s.store.segSize; sg < len(s.segs) {
		code = s.segs[sg].mustAcquire().cats[col].at(i % s.store.segSize)
	} else {
		code = s.tailCats[col][:s.tailLen][i-len(s.segs)*s.store.segSize]
	}
	return s.store.dict.str(code)
}

// NumRange returns the minimum and maximum of numeric column col over the
// snapshot, skipping NaN values exactly like a plain `v < lo / v > hi`
// sweep would (+Inf, -Inf when no comparable value exists). Sealed
// segments answer from the zone maps on their handles, so a spilled
// segment is never decoded.
func (s *Snapshot) NumRange(col int) (lo, hi float64) {
	if s.store.attrs[col].Kind != dataset.Numeric {
		panic(fmt.Sprintf("store: attribute %q is not numeric", s.store.attrs[col].Name))
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, sg := range s.segs {
		z := sg.zones[col]
		if z.min < lo {
			lo = z.min
		}
		if z.max > hi {
			hi = z.max
		}
	}
	for _, v := range s.tailNums[col][:s.tailLen] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Materialize is Dataset for callers that hold the store's files intact:
// it panics where Dataset returns an error.
func (s *Snapshot) Materialize() *dataset.Dataset {
	d, err := s.Dataset()
	if err != nil {
		panic(err)
	}
	return d
}

// Dataset exports the snapshot as a dataset (column-wise copy, dictionary
// codes decoded). Masked releases run off this, so /protect sees exactly
// the version pinned at request time. It reads every sealed segment; one
// whose file fails its read, checksum or decode fails the export with an
// error wrapping ErrUnreadable that names the file, so a corrupt store
// never yields a release.
func (s *Snapshot) Dataset() (*dataset.Dataset, error) {
	nums := make([][]float64, len(s.store.attrs))
	cats := make([][]string, len(s.store.attrs))
	for j, a := range s.store.attrs {
		if a.Kind == dataset.Numeric {
			nums[j] = make([]float64, 0, s.rows)
		} else {
			cats[j] = make([]string, 0, s.rows)
		}
	}
	// Segment-outer order so each spilled segment is decoded once for all
	// of its columns, not once per column.
	for _, sg := range s.segs {
		d, err := sg.acquire()
		if err != nil {
			return nil, err
		}
		for j, a := range s.store.attrs {
			if a.Kind == dataset.Numeric {
				c := &d.nums[j]
				for _, k := range c.codes {
					nums[j] = append(nums[j], c.dict[k])
				}
				continue
			}
			c := &d.cats[j]
			strs := make([]string, len(c.dict))
			for k, code := range c.dict {
				strs[k] = s.store.dict.str(code)
			}
			for _, k := range c.codes {
				cats[j] = append(cats[j], strs[k])
			}
		}
	}
	for j, a := range s.store.attrs {
		if a.Kind == dataset.Numeric {
			nums[j] = append(nums[j], s.tailNums[j][:s.tailLen]...)
		} else {
			for _, code := range s.tailCats[j][:s.tailLen] {
				cats[j] = append(cats[j], s.store.dict.str(code))
			}
		}
	}
	d, err := dataset.NewFromColumns(s.store.attrs, s.rows, nums, cats)
	if err != nil {
		// The snapshot's own columns always satisfy NewFromColumns'
		// invariants; a failure here is a store bug.
		panic(fmt.Sprintf("store: materialize: %v", err))
	}
	return d, nil
}
