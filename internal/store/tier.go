package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"

	"privacy3d/internal/dataset"
)

// Two-tier storage. Every store owns a tierState; a memory-only store
// (New/FromDataset) has dir == "" and keeps every sealed segment resident
// forever, while a durable store (Create/Open) writes each sealed segment
// to its own checksummed file at seal time and may then evict the decoded
// form under a memory cap — the segment stays queryable through its
// fileSource, which reads the whole file with one ReadAt and decodes it.
// The decoded resident tier is the spilled tier's only cache: promotion
// is read-through, an acquire of a spilled segment re-admits it to the
// resident tier whenever the cap has room.

// Process-wide tier gauges, aggregated over every live (un-Closed) store
// so serve binaries can surface them on /metrics without holding a store
// reference. Memory-only stores count toward the resident gauge too — a
// serve process without -datadir reports its whole store resident.
var (
	gSegResident  atomic.Int64
	gSegSpilled   atomic.Int64
	gSpilledReads atomic.Int64
)

// TierGauges reports the process-wide tier gauges: resident and spilled
// sealed-segment counts across live stores, and the cumulative count of
// spilled-segment reads from disk (one whole-file read per decode).
func TierGauges() (resident, spilled, spilledReads int64) {
	return gSegResident.Load(), gSegSpilled.Load(), gSpilledReads.Load()
}

// Options configures a durable store. The shard count is not an option:
// Create partitions sealed segments across DefaultShards shards and records
// the count in the manifest, which Open then follows.
type Options struct {
	// SegmentSize is the rows per sealed segment: a multiple of 64 in
	// [64, MaxSegmentSize] (0 selects DefaultSegmentSize on Create; on
	// Open it must match the manifest or be 0).
	SegmentSize int
	// MemCap caps the decoded resident bytes of sealed segments; 0 means
	// uncapped (segments are still persisted, never evicted).
	MemCap int64
}

// tierState is the per-store tier bookkeeping shared by its segments.
type tierState struct {
	dir     string // "" for memory-only stores
	memCap  int64
	attrs   []dataset.Attribute
	segSize int

	useClock      atomic.Int64 // logical clock stamping acquires under a memory cap (LRU order)
	residentBytes atomic.Int64 // decoded bytes admitted to the resident tier
	residentSegs  atomic.Int64
	spilledSegs   atomic.Int64
	spilledReads  atomic.Int64 // segment files read back to decode a spilled segment

	fmu    sync.Mutex
	files  map[int]*os.File // ord → open segment file
	closed bool
}

// durable reports whether the tier has a backing directory.
func (t *tierState) durable() bool { return t.dir != "" }

// admit reserves b decoded bytes of resident budget. With no cap it always
// succeeds; under a cap it fails when the budget is exhausted (but a store
// whose cap is smaller than a single segment may still admit it when
// nothing else is resident, so progress never wedges).
func (t *tierState) admit(b int64) bool {
	if t.memCap <= 0 {
		t.residentBytes.Add(b)
		return true
	}
	for {
		cur := t.residentBytes.Load()
		if cur+b > t.memCap && cur > 0 {
			return false
		}
		if t.residentBytes.CompareAndSwap(cur, cur+b) {
			return true
		}
	}
}

func (t *tierState) unadmit(b int64) { t.residentBytes.Add(-b) }

// noteResident flips a spilled segment's accounting to resident (its bytes
// were already reserved by admit).
func (t *tierState) noteResident(int64) {
	t.residentSegs.Add(1)
	t.spilledSegs.Add(-1)
	gSegResident.Add(1)
	gSegSpilled.Add(-1)
}

// noteSealed accounts a freshly sealed (resident) segment.
func (t *tierState) noteSealed(b int64) {
	t.residentBytes.Add(b)
	t.residentSegs.Add(1)
	gSegResident.Add(1)
}

// noteSpilled flips a resident segment's accounting to spilled.
func (t *tierState) noteSpilled(b int64) {
	t.residentBytes.Add(-b)
	t.residentSegs.Add(-1)
	t.spilledSegs.Add(1)
	gSegResident.Add(-1)
	gSegSpilled.Add(1)
}

// file returns the open handle for segment ord, opening (and caching) it
// on first use.
func (t *tierState) file(ord int, name string) (*os.File, error) {
	t.fmu.Lock()
	defer t.fmu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("store: %s: store is closed", name)
	}
	if f, ok := t.files[ord]; ok {
		return f, nil
	}
	f, err := os.Open(filepath.Join(t.dir, name))
	if err != nil {
		return nil, err
	}
	t.files[ord] = f
	return f, nil
}

// forget closes segment ord's cached handle if it is still f, so the next
// read opens the file by name again: a file restored by rename is then
// read, not the corrupt one the old handle still points at.
func (t *tierState) forget(ord int, f *os.File) {
	t.fmu.Lock()
	defer t.fmu.Unlock()
	if t.files[ord] == f {
		delete(t.files, ord)
		f.Close()
	}
}

// close drops the file handles and retires the store's gauge contribution.
func (t *tierState) close() {
	t.fmu.Lock()
	if !t.closed {
		t.closed = true
		for _, f := range t.files {
			f.Close()
		}
		t.files = nil
		gSegResident.Add(-t.residentSegs.Load())
		gSegSpilled.Add(-t.spilledSegs.Load())
	}
	t.fmu.Unlock()
}

// fileSource is the backing of a sealed segment persisted in the store
// directory: each Load reads the whole segment file with one ReadAt,
// checks its CRC against the manifest's, and decodes it straight out of
// that buffer. Open checks only the file's size, so this is where the
// file's bytes are verified, on every decode.
type fileSource struct {
	t    *tierState
	ord  int
	name string
	size int64
	crc  uint32 // whole-file CRC, as recorded in the manifest
}

// Load decodes the segment into its evaluable form. The returned segData
// is immutable and exactly what the seal built — byte-identical answers
// across tiers follow from that.
func (fs *fileSource) Load() (*segData, error) {
	f, err := fs.t.file(fs.ord, fs.name)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, fs.size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("store: read %s: %w", fs.name, err)
	}
	fs.t.spilledReads.Add(1)
	gSpilledReads.Add(1)
	if crc := crc32.ChecksumIEEE(buf); crc != fs.crc {
		fs.t.forget(fs.ord, f)
		return nil, fmt.Errorf("store: %s: checksum mismatch (file %08x, manifest %08x)", fs.name, crc, fs.crc)
	}
	_, d, err := decodeSegment(&blockReader{buf: buf, name: fs.name}, fs.t.attrs)
	if err == nil && d.n != fs.t.segSize {
		return nil, fmt.Errorf("store: %s: %d rows, segment size is %d", fs.name, d.n, fs.t.segSize)
	}
	return d, err
}

// TierStats is a point-in-time view of one store's tier state. The
// decoded resident tier is the spilled tier's only cache, so of the four
// Pager fields, kept for existing readers, only PagerMisses moves.
type TierStats struct {
	Resident      int   // sealed segments whose decoded form is in memory
	Spilled       int   // sealed segments decoded from their file on each acquire
	ResidentBytes int64 // decoded bytes admitted against MemCap
	// PagerHits is always 0: there is no page cache to hit.
	PagerHits int64
	// PagerMisses counts spilled-segment reads from disk, one whole-file
	// read per decode.
	PagerMisses int64
	// PagerEvictions is always 0: there is no page cache to evict from.
	PagerEvictions int64
	// PagerBytes is always 0: no file bytes are cached.
	PagerBytes int64
}

// TierStats reports the store's tier counters.
func (s *Store) TierStats() TierStats {
	t := s.tier
	return TierStats{
		Resident:      int(t.residentSegs.Load()),
		Spilled:       int(t.spilledSegs.Load()),
		ResidentBytes: t.residentBytes.Load(),
		PagerMisses:   t.spilledReads.Load(),
	}
}

// Exists reports whether dir holds a committed store (any manifest file).
func Exists(dir string) bool {
	seqs, err := listManifests(dir)
	return err == nil && len(seqs) > 0
}

// lockDir takes the directory's exclusive flock. The lock lives on the
// open file description, so it is released by Close, by process exit, and
// by a crash — stale locks cannot wedge a restart.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s is locked by another store instance (close it first): %w", dir, err)
	}
	return f, nil
}

// Create initialises a new durable store in dir (created if missing, must
// not already contain a store) and commits an empty manifest so the
// directory is recoverable from the first moment.
func Create(dir string, attrs []dataset.Attribute, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if Exists(dir) {
		return nil, fmt.Errorf("store: %s already contains a store (use Open)", dir)
	}
	lockF, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s, err := newStore(attrs, opts.SegmentSize, DefaultShards, dir, opts)
	if err != nil {
		lockF.Close()
		return nil, err
	}
	s.lockF = lockF
	s.dictF, err = os.OpenFile(filepath.Join(dir, dictFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		lockF.Close()
		return nil, err
	}
	s.epoch = 1
	s.version = s.epoch << 32
	s.sweep = true
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.commitLocked(); err != nil {
		s.dictF.Close()
		lockF.Close()
		return nil, err
	}
	s.publishLocked()
	return s, nil
}

// CreateFromDataset is Create followed by a bulk ingest of d's rows.
func CreateFromDataset(dir string, d *dataset.Dataset, opts Options) (*Store, error) {
	s, err := Create(dir, d.Attrs(), opts)
	if err != nil {
		return nil, err
	}
	if err := s.AppendDataset(d); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Open recovers the store committed in dir: it adopts the newest manifest
// whose checksum verifies and whose files check out — each segment file's
// size, the tail file's and the dictionary prefix's checksums (deleting
// torn newer ones) — decodes the dictionary prefix and tail bytes that
// validation read, and registers every sealed segment as spilled, with
// the zone maps and footprint the manifest records — decoded forms come
// back one checksum-verified file read at a time as queries touch them.
// Open reads no segment file. Only P3DMAN02 manifests and SEG v3 segments
// are read: a directory whose manifests are all of an earlier layout
// fails to open, naming the layout, and Open removes none of its files.
// The epoch is bumped and committed before the store is returned, so
// snapshot versions from this incarnation can never collide with
// versions any previous incarnation may have handed out after its last
// commit. That commit writes only the manifest: the tail has not changed,
// so it names the adopted tail file again.
func Open(dir string, opts Options) (*Store, error) {
	lockF, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	// DICT is opened once: validation reads each candidate's committed
	// prefix through this handle, and the store keeps it for appends.
	dictF, err := os.OpenFile(filepath.Join(dir, dictFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		lockF.Close()
		return nil, err
	}
	closeFiles := func() {
		dictF.Close()
		lockF.Close()
	}
	m, seq, names, err := recoverManifest(dir, dictF)
	if err != nil {
		closeFiles()
		return nil, err
	}
	if opts.SegmentSize != 0 && opts.SegmentSize != m.SegSize {
		closeFiles()
		return nil, fmt.Errorf("store: %s has segment size %d, requested %d", dir, m.SegSize, opts.SegmentSize)
	}
	s, err := newStore(m.Attrs, m.SegSize, m.Shards, dir, opts)
	if err != nil {
		closeFiles()
		return nil, err
	}
	s.lockF = lockF
	s.dictF = dictF
	s.manifestSeq = seq
	s.epoch = m.Epoch + 1
	s.version = s.epoch << 32
	s.sweep = true
	s.listing = names // the directory is locked: the sweep needs no fresh listing
	fail := func(err error) (*Store, error) {
		s.tier.close()
		closeFiles()
		return nil, err
	}

	// Dictionary: load the committed prefix, truncate any uncommitted
	// trailing bytes a crashed ingest appended, and keep appending.
	if err := s.loadDict(m); err != nil {
		return fail(err)
	}

	// Sealed segments: handles only, all spilled. Decoded footprints and
	// zone maps come from the manifest so the memory cap can account, and
	// NumRange answer for, a segment that has never been decoded.
	segs := make([]*segment, len(m.Segments))
	for i := range m.Segments {
		b := &m.Segments[i]
		segs[i] = &segment{
			base:  i * s.segSize,
			n:     b.Rows,
			ord:   i,
			bytes: b.Decoded,
			zones: decodeZones(b.Zones),
			tier:  s.tier,
			src:   &fileSource{t: s.tier, ord: i, name: b.File, size: b.Size, crc: b.CRC},
		}
	}
	s.segs = segs
	s.tier.spilledSegs.Store(int64(len(segs)))
	gSegSpilled.Add(int64(len(segs)))

	// Open tail: decoded from the bytes validation checksummed (it is at
	// most one segment of rows).
	if m.Tail != nil {
		if err := s.loadTail(m.Tail); err != nil {
			return fail(err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.rebuildShardsLocked()
	// Commit the epoch bump immediately (same data, new epoch) so a crash
	// before the next natural commit still leaves the epoch consumed.
	if err := s.commitLocked(); err != nil {
		return fail(err)
	}
	s.publishLocked()
	return s, nil
}

// loadDict decodes the committed dictionary prefix validation read,
// truncates any uncommitted suffix, and positions the file for appends.
func (s *Store) loadDict(m *manifest) error {
	strs, err := decodeDict(m.dict)
	if err != nil {
		return err
	}
	for _, str := range strs {
		s.dict.intern(str)
	}
	if len(s.dict.strs) != m.DictLen {
		return fmt.Errorf("store: dictionary has %d committed entries, manifest says %d", len(s.dict.strs), m.DictLen)
	}
	if err := s.dictF.Truncate(m.DictBytes); err != nil {
		return err
	}
	if _, err := s.dictF.Seek(m.DictBytes, io.SeekStart); err != nil {
		return err
	}
	s.dictCommitted = m.DictLen
	s.dictBytes = m.DictBytes
	s.dictCRC = m.DictCRC
	return nil
}

// decodeDict parses a DICT prefix: a sequence of entries, each a uvarint
// byte length followed by that many bytes. A length must be in the
// shortest encoding, as the writer emits it, so an accepted prefix is
// exactly the bytes its entries encode to.
func decodeDict(buf []byte) ([]string, error) {
	var strs []string
	for off := 0; off < len(buf); {
		n, w := binary.Uvarint(buf[off:])
		if w <= 0 || w > 1 && buf[off+w-1] == 0 || uint64(len(buf)-off-w) < n {
			return nil, fmt.Errorf("store: dictionary: corrupt entry at byte %d", off)
		}
		off += w
		strs = append(strs, string(buf[off:off+int(n)]))
		off += int(n)
	}
	return strs, nil
}

// loadTail decodes the committed tail file's bytes, as validation read
// them, into the tail buffers, and records the file as the last committed
// tail, so commits name it again until the tail changes.
func (s *Store) loadTail(b *manifestBlock) error {
	base, rows, nums, cats, err := decodeTail(&blockReader{buf: b.buf, name: b.File}, s.attrs)
	if err != nil {
		return err
	}
	if rows != b.Rows || rows > s.segSize {
		return fmt.Errorf("store: %s: %d rows, manifest says %d (segment size %d)", b.File, rows, b.Rows, s.segSize)
	}
	for j := range s.attrs {
		copy(s.tailNums[j], nums[j])
		copy(s.tailCats[j], cats[j])
	}
	s.tailLen = rows
	s.lastTail = committedTail{manifestBlock{File: b.File, Rows: b.Rows, Size: b.Size, CRC: b.CRC}, base}
	return nil
}

// flushDictLocked appends the uncommitted dictionary entries to DICT and
// fsyncs, maintaining the running committed CRC.
func (s *Store) flushDictLocked() error {
	s.dict.mu.RLock()
	n := len(s.dict.strs)
	var buf []byte
	for _, str := range s.dict.strs[s.dictCommitted:n] {
		buf = binary.AppendUvarint(buf, uint64(len(str)))
		buf = append(buf, str...)
	}
	s.dict.mu.RUnlock()
	if len(buf) == 0 {
		s.dictCommitted = n
		return nil
	}
	if _, err := s.dictF.Write(buf); err != nil {
		return err
	}
	if err := s.dictF.Sync(); err != nil {
		return err
	}
	s.dictCommitted = n
	s.dictBytes += int64(len(buf))
	s.dictCRC = crc32.Update(s.dictCRC, crc32.IEEETable, buf)
	return nil
}

// committedTail is a commit's tail record and the row its rows start at;
// File is "" when the commit had no tail.
type committedTail struct {
	manifestBlock
	base int
}

// commitLocked makes the current sealed state (and open tail) durable:
// flush the dictionary, name the open tail's rows in a tail file, and
// commit a new manifest via atomic rename. Sealed segment files were
// already written (and fsync'd) at seal time. A tail file is written only
// when the tail changed since the last successful commit: rows are only
// ever appended to the tail, and a seal starts a new one at a new base,
// so a tail holding the same number of rows at the same base holds the
// rows that commit's file does, and the new manifest names that file
// again. After the commit, the manifest superseded twice over is
// removed, and its tail file unless a kept manifest still names it — the
// previous commit stays on disk as the fallback recovery point.
func (s *Store) commitLocked() error {
	full := s.sweep
	s.sweep = true // until this commit succeeds: a failed one leaves files no manifest names
	if err := s.flushDictLocked(); err != nil {
		return err
	}
	seq := s.manifestSeq + 1
	m := &manifest{
		SegSize:   s.segSize,
		Shards:    s.shards,
		Epoch:     s.epoch,
		Version:   s.version,
		Attrs:     s.attrs,
		DictLen:   s.dictCommitted,
		DictBytes: s.dictBytes,
		DictCRC:   s.dictCRC,
	}
	m.Segments = make([]manifestBlock, len(s.segs))
	for i, sg := range s.segs {
		m.Segments[i] = manifestBlock{File: sg.src.name, Rows: sg.n, Size: sg.src.size, CRC: sg.src.crc, Decoded: sg.bytes, Zones: encodeZones(sg.zones)}
	}
	tail := committedTail{base: len(s.segs) * s.segSize}
	if s.tailLen > 0 {
		if s.lastTail.File != "" && s.lastTail.Rows == s.tailLen && s.lastTail.base == tail.base {
			tail.manifestBlock = s.lastTail.manifestBlock
		} else {
			name := tailFileName(seq)
			size, crc, err := writeTailFile(s.tier.dir, name, tail.base, s.tailLen, s.tailNums, s.tailCats)
			if err != nil {
				return err
			}
			tail.manifestBlock = manifestBlock{File: name, Rows: s.tailLen, Size: size, CRC: crc}
		}
		m.Tail = &tail.manifestBlock
	}
	if err := writeManifest(s.tier.dir, seq, m); err != nil {
		return err
	}
	s.manifestSeq = seq
	dropped := s.prevTail
	s.prevTail, s.lastTail = s.lastTail.File, tail
	s.sweep = false
	if full {
		s.sweepLocked(seq)
		return nil
	}
	// Commits are numbered consecutively from the one Open or Create made,
	// whose sweep left only it and its predecessor, so the manifest this
	// commit supersedes as fallback is seq-2.
	if seq > 2 {
		os.Remove(filepath.Join(s.tier.dir, manifestFileName(seq-2)))
	}
	if dropped != "" && dropped != s.prevTail && dropped != tail.File {
		os.Remove(filepath.Join(s.tier.dir, dropped))
	}
	return nil
}

// sweepLocked removes, after the commit at seq, every manifest but seq and
// its fallback, and every file neither references: what crashed or failed
// commits and seals left behind. It runs in the commits Open and Create
// make and in the first commit after one that failed, and lists the
// directory once — or, in Open's commit, not at all: it takes the listing
// recovery made. The directory is locked, so a file missing from that
// listing was written by Open's own commit and is kept. Best-effort.
func (s *Store) sweepLocked(seq uint64) {
	names := s.listing
	s.listing = nil
	if names == nil {
		var err error
		if names, err = listDir(s.tier.dir); err != nil {
			s.sweep = true
			return
		}
	}
	seqs := manifestSeqs(names)
	fallback := prevManifestSeq(seqs, seq)
	for _, old := range seqs {
		if old < seq && old != fallback {
			os.Remove(filepath.Join(s.tier.dir, manifestFileName(old)))
		}
	}
	sweepOrphans(s.tier.dir, names, s.keepFiles(), len(s.segs))
}

// prevManifestSeq returns the newest sequence below seq (the fallback
// commit), or seq itself when none exists.
func prevManifestSeq(seqs []uint64, seq uint64) uint64 {
	best := seq
	for _, c := range seqs {
		if c < seq && (best == seq || c > best) {
			best = c
		}
	}
	return best
}

// keepFiles names the tail files the two retained manifests reference:
// one file when both name the same tail.
func (s *Store) keepFiles() map[string]bool {
	keep := map[string]bool{}
	for _, name := range [2]string{s.lastTail.File, s.prevTail} {
		if name != "" {
			keep[name] = true
		}
	}
	return keep
}

// Close commits the final state (a durable store's open tail becomes part
// of the committed manifest, so a clean shutdown loses nothing), releases
// the directory lock, and retires the store's gauge contribution. The
// store must not be used afterwards; snapshots still held may keep reading
// resident data but will panic if they touch a spilled segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.tier.durable() {
		err = s.commitLocked()
		if cerr := s.dictF.Close(); err == nil {
			err = cerr
		}
	}
	s.tier.close()
	if s.lockF != nil {
		syscall.Flock(int(s.lockF.Fd()), syscall.LOCK_UN)
		if cerr := s.lockF.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// spillLocked evicts least-recently-used resident segments until the
// decoded resident bytes fit the cap. Only durably persisted segments are
// evictable; in-flight readers keep the immutable segData they acquired.
func (s *Store) spillLocked() {
	t := s.tier
	if !t.durable() || t.memCap <= 0 {
		return
	}
	for t.residentBytes.Load() > t.memCap {
		var victim *segment
		var oldest int64
		for _, sg := range s.segs {
			if sg.src == nil || !sg.resident() {
				continue
			}
			if lu := sg.lastUse.Load(); victim == nil || lu < oldest {
				victim, oldest = sg, lu
			}
		}
		if victim == nil || !victim.evict() {
			return
		}
	}
}
