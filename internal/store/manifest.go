package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"privacy3d/internal/dataset"
)

// Manifest + commit protocol.
//
// A durable store directory contains:
//
//	LOCK              flock'd for the store's lifetime (double-open guard)
//	DICT              append-only string dictionary (uvarint len + bytes)
//	SEG-0000000N      sealed segment N (segMagic block file, immutable)
//	TAIL-000000000S   open-tail rows written by commit S (tailMagic block
//	                  file); later commits name it again until the tail changes
//	MANIFEST-000000000S  commit S
//
// A manifest file is binary, little-endian like the block files:
//
//	magic       8B  "P3DMAN02"
//	seg_size    i64
//	shards      i64
//	epoch       u64
//	version     u64
//	dict_len    i64 committed dictionary entries
//	dict_bytes  i64 committed DICT prefix length
//	dict_crc    u32 CRC-32 of that prefix
//	nattrs      u32, then per attribute: role u8, kind u8, name str,
//	            ncats u32, ncats × str (a str is a u32 length and its bytes)
//	nsegs       u32, then per segment one fixed-width record:
//	              ord u32 (the file is segFileName(ord)), rows i64,
//	              size i64, crc u32, decoded i64, and nattrs zone maps as
//	              the IEEE-754 bit patterns of [min, max] (2 × u64)
//	tail        u8 0 (none) or 1, then seq u64 (the file is
//	            tailFileName(seq)), rows i64, size i64, crc u32
//	crc         u32 CRC-32 (IEEE) over everything before it
//
// Every field has one encoding, so a manifest that decodes re-encodes to
// its own bytes. P3DMAN02 is the only layout read: a manifest of the
// earlier JSON layout ("P3DMAN01") fails to decode on its magic.
//
// Commits write the manifest through writeAtomic — a temp file, fsync'd,
// atomically renamed to its sequence name, then a directory fsync — so a
// manifest either exists completely or not at all, and every file it
// references was fsync'd before the rename. Recovery (Open) walks manifests newest-first
// and adopts the first one whose own checksum verifies and whose
// referenced files check out (see validateManifest); anything newer is a
// torn or corrupted commit and is deleted, and Open's commit sweeps the
// files no kept manifest references (the torn tail of a crashed ingest,
// temp files) using the listing recovery made. The two newest manifests
// are kept after each commit so external corruption of the newest still
// leaves a valid fallback; every other commit removes the manifest and
// tail file it supersedes by name, without listing the directory — the
// tail file only once neither kept manifest names it.
const (
	manifestMagic  = "P3DMAN02"
	manifestPrefix = "MANIFEST-"
	segPrefix      = "SEG-"
	tailPrefix     = "TAIL-"
	dictFileName   = "DICT"
	lockFileName   = "LOCK"
	tmpInfix       = ".tmp" // in the name of every file a write has yet to rename

	segNameDigits  = 8  // SEG-%08d
	tailNameDigits = 10 // TAIL-%010d
)

// manifestBlock describes one committed block file (sealed segment or
// tail): its name, row count, exact file size, checksum of the whole file,
// the decoded in-memory footprint (what the resident-tier memory cap
// accounts, unknowable from the file size alone because NaN counts change
// index shapes), and — for sealed segments — one zone map per schema
// column as the IEEE-754 bit patterns of [min, max], so −0, ±Inf and the
// empty zone of an all-NaN column round-trip exactly.
type manifestBlock struct {
	File    string
	Rows    int
	Size    int64
	CRC     uint32
	Decoded int64
	Zones   [][2]uint64

	// buf holds a tail file's bytes, read and checksummed by validation,
	// for Open to decode.
	buf []byte
}

// encodeZones converts a segment's zone maps to their manifest form.
func encodeZones(zs []zone) [][2]uint64 {
	out := make([][2]uint64, len(zs))
	for j, z := range zs {
		out[j] = [2]uint64{math.Float64bits(z.min), math.Float64bits(z.max)}
	}
	return out
}

// decodeZones is encodeZones' inverse.
func decodeZones(bits [][2]uint64) []zone {
	zs := make([]zone, len(bits))
	for j, b := range bits {
		zs[j] = zone{math.Float64frombits(b[0]), math.Float64frombits(b[1])}
	}
	return zs
}

// manifest is commit S's full description of the durable state.
type manifest struct {
	SegSize   int
	Shards    int
	Epoch     uint64
	Version   uint64 // informational; epoch is what recovery needs
	Attrs     []dataset.Attribute
	DictLen   int    // committed dictionary entries
	DictBytes int64  // committed DICT prefix length
	DictCRC   uint32 // CRC-32 of that prefix
	Segments  []manifestBlock
	Tail      *manifestBlock

	// dict holds the committed DICT prefix, read and checksummed by
	// validation, for Open to decode.
	dict []byte
}

func segFileName(ord int) string { return fmt.Sprintf("%s%0*d", segPrefix, segNameDigits, ord) }

func tailFileName(seq uint64) string { return fmt.Sprintf("%s%0*d", tailPrefix, tailNameDigits, seq) }

func manifestFileName(seq uint64) string { return fmt.Sprintf("%s%010d", manifestPrefix, seq) }

// nameNumber parses the number in a file name that the writer formats as
// prefix and the number zero-padded to digits; ok is false for any name
// it would not have written.
func nameNumber(name, prefix string, digits int) (n uint64, ok bool) {
	num, ok := strings.CutPrefix(name, prefix)
	if !ok || len(num) < digits || len(num) > digits && num[0] == '0' {
		return 0, false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	return n, err == nil
}

// manifestSeq parses the sequence number out of a manifest file name.
func manifestSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, manifestPrefix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(name, manifestPrefix), 10, 64)
	return n, err == nil
}

// listDir returns the names of the entries in dir, unsorted.
func listDir(dir string) ([]string, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Readdirnames(-1)
}

// manifestSeqs returns the manifest sequence numbers among names, newest
// first.
func manifestSeqs(names []string) []uint64 {
	var seqs []uint64
	for _, name := range names {
		if seq, ok := manifestSeq(name); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] > seqs[b] })
	return seqs
}

// listManifests returns the manifest sequence numbers present in dir,
// newest first.
func listManifests(dir string) ([]uint64, error) {
	names, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	return manifestSeqs(names), nil
}

// writeManifest commits m as sequence seq (writeAtomic).
func writeManifest(dir string, seq uint64, m *manifest) error {
	buf, err := encodeManifest(m)
	if err != nil {
		return err
	}
	return writeAtomic(dir, manifestFileName(seq), func(f *os.File) error {
		_, err := f.Write(buf)
		return err
	})
}

// segRecordSize is the width of one segment record of a P3DMAN02
// manifest over ncols columns.
func segRecordSize(ncols int) int { return 4 + 8 + 8 + 4 + 8 + 16*ncols }

// encodeManifest renders m as the bytes of a P3DMAN02 manifest file. It
// fails on what the layout cannot hold: a segment without one zone map per
// column, a block file name the writer would not have given, a role or
// kind past a byte.
func encodeManifest(m *manifest) ([]byte, error) {
	le := binary.LittleEndian
	size := len(manifestMagic) + 6*8 + 4 + 4 + 4 + len(m.Segments)*segRecordSize(len(m.Attrs)) + 1 + 28 + 4
	for _, a := range m.Attrs {
		size += 10 + len(a.Name)
		for _, c := range a.Categories {
			size += 4 + len(c)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, manifestMagic...)
	buf = le.AppendUint64(buf, uint64(m.SegSize))
	buf = le.AppendUint64(buf, uint64(m.Shards))
	buf = le.AppendUint64(buf, m.Epoch)
	buf = le.AppendUint64(buf, m.Version)
	buf = le.AppendUint64(buf, uint64(m.DictLen))
	buf = le.AppendUint64(buf, uint64(m.DictBytes))
	buf = le.AppendUint32(buf, m.DictCRC)
	buf = le.AppendUint32(buf, uint32(len(m.Attrs)))
	for _, a := range m.Attrs {
		if a.Role < 0 || a.Role > math.MaxUint8 || a.Kind < 0 || a.Kind > math.MaxUint8 {
			return nil, fmt.Errorf("store: attribute %q: role %d or kind %d does not fit the manifest", a.Name, a.Role, a.Kind)
		}
		buf = append(buf, byte(a.Role), byte(a.Kind))
		buf = appendStr(buf, a.Name)
		buf = le.AppendUint32(buf, uint32(len(a.Categories)))
		for _, c := range a.Categories {
			buf = appendStr(buf, c)
		}
	}
	buf = le.AppendUint32(buf, uint32(len(m.Segments)))
	for i := range m.Segments {
		b := &m.Segments[i]
		ord, ok := nameNumber(b.File, segPrefix, segNameDigits)
		if !ok || ord > math.MaxUint32 {
			return nil, fmt.Errorf("store: %q is not a segment file name", b.File)
		}
		if len(b.Zones) != len(m.Attrs) {
			return nil, fmt.Errorf("store: %s: %d zone maps, schema has %d columns", b.File, len(b.Zones), len(m.Attrs))
		}
		buf = le.AppendUint32(buf, uint32(ord))
		buf = le.AppendUint64(buf, uint64(b.Rows))
		buf = le.AppendUint64(buf, uint64(b.Size))
		buf = le.AppendUint32(buf, b.CRC)
		buf = le.AppendUint64(buf, uint64(b.Decoded))
		for _, z := range b.Zones {
			buf = le.AppendUint64(buf, z[0])
			buf = le.AppendUint64(buf, z[1])
		}
	}
	if t := m.Tail; t == nil {
		buf = append(buf, 0)
	} else {
		seq, ok := nameNumber(t.File, tailPrefix, tailNameDigits)
		if !ok {
			return nil, fmt.Errorf("store: %q is not a tail file name", t.File)
		}
		buf = append(buf, 1)
		buf = le.AppendUint64(buf, seq)
		buf = le.AppendUint64(buf, uint64(t.Rows))
		buf = le.AppendUint64(buf, uint64(t.Size))
		buf = le.AppendUint32(buf, t.CRC)
	}
	return le.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// appendStr appends a manifest string: its u32 length, then its bytes.
func appendStr(buf []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(buf, uint32(len(s))), s...)
}

// readManifest reads and decodes one manifest file.
func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return m, nil
}

// manifestReader reads a P3DMAN02 body field by field out of a
// blockReader, which never reads into the CRC footer. Its first error
// sticks and every later read returns zero, so a decoder checks err once.
type manifestReader struct {
	br  blockReader
	err error
}

func (r *manifestReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	p, err := r.br.take(n)
	r.err = err
	return p
}

func (r *manifestReader) u8() uint8 {
	if p := r.take(1); r.err == nil {
		return p[0]
	}
	return 0
}

func (r *manifestReader) u32() uint32 {
	if p := r.take(4); r.err == nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *manifestReader) u64() uint64 {
	if p := r.take(8); r.err == nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *manifestReader) i64() int64 { return int64(r.u64()) }

func (r *manifestReader) str() string { return string(r.take(int(r.u32()))) }

// count reads a u32 element count and fails it unless that many elements
// of at least width bytes each fit in what is left, so a corrupt count
// cannot size an allocation.
func (r *manifestReader) count(width int) int {
	n := int(r.u32())
	if r.err == nil && n*width > len(r.br.buf)-4-r.br.off {
		r.err = fmt.Errorf("store: manifest: %d entries of %d bytes overrun the file", n, width)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// decodeManifest checksum-verifies and parses the bytes of one P3DMAN02
// manifest file.
func decodeManifest(raw []byte) (*manifest, error) {
	if len(raw) < len(manifestMagic)+4 {
		return nil, fmt.Errorf("truncated manifest (%d bytes)", len(raw))
	}
	if magic := raw[:len(manifestMagic)]; string(magic) != manifestMagic {
		return nil, fmt.Errorf("manifest magic %q: only the %q layout is read", magic, manifestMagic)
	}
	if crc32.ChecksumIEEE(raw[:len(raw)-4]) != binary.LittleEndian.Uint32(raw[len(raw)-4:]) {
		return nil, fmt.Errorf("manifest checksum mismatch")
	}
	r := &manifestReader{br: blockReader{buf: raw, off: len(manifestMagic), name: "manifest"}}
	m := &manifest{
		SegSize:   int(r.i64()),
		Shards:    int(r.i64()),
		Epoch:     r.u64(),
		Version:   r.u64(),
		DictLen:   int(r.i64()),
		DictBytes: r.i64(),
		DictCRC:   r.u32(),
	}
	m.Attrs = make([]dataset.Attribute, r.count(10))
	for j := range m.Attrs {
		a := &m.Attrs[j]
		a.Role, a.Kind = dataset.Role(r.u8()), dataset.Kind(r.u8())
		a.Name = r.str()
		if n := r.count(4); n > 0 {
			a.Categories = make([]string, n)
			for k := range a.Categories {
				a.Categories[k] = r.str()
			}
		}
	}
	ncols := len(m.Attrs)
	m.Segments = make([]manifestBlock, r.count(segRecordSize(ncols)))
	zones := make([][2]uint64, len(m.Segments)*ncols)
	for i := range m.Segments {
		b := &m.Segments[i]
		b.File = segFileName(int(r.u32()))
		b.Rows, b.Size, b.CRC, b.Decoded = int(r.i64()), r.i64(), r.u32(), r.i64()
		b.Zones = zones[i*ncols : (i+1)*ncols : (i+1)*ncols]
		for j := range b.Zones {
			b.Zones[j] = [2]uint64{r.u64(), r.u64()}
		}
	}
	switch r.u8() {
	case 0:
	case 1:
		m.Tail = &manifestBlock{File: tailFileName(r.u64()), Rows: int(r.i64()), Size: r.i64(), CRC: r.u32()}
	default:
		if r.err == nil {
			r.err = fmt.Errorf("store: manifest: bad tail flag")
		}
	}
	if r.err == nil {
		r.err = r.br.end()
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

// validateManifest checks the manifest's segment size (checkSegmentSize:
// a size a store could never have sealed would otherwise open as the
// default and fail every row-count check), that each segment is named for
// its ordinal, each zone map, and the files themselves. A sealed segment
// file is checked for existence and exact size only, with one stat: its
// checksum is verified on every read (fileSource.Load), where the bytes
// are in memory anyway, so Open reads no segment. The tail file and the
// committed DICT prefix, which Open decodes in full, are read and
// checksummed here, and their bytes kept for Open, so a torn tail or
// dictionary fails the commit and recovery falls back to the previous
// one. The prefix is read through dict, the DICT handle Open keeps for
// appends.
func validateManifest(dir string, m *manifest, dict *os.File) error {
	if err := checkSegmentSize(m.SegSize); err != nil {
		return err
	}
	for i := range m.Segments {
		b := &m.Segments[i]
		if b.File != segFileName(i) {
			return fmt.Errorf("store: segment %d is named %q", i, b.File)
		}
		if err := validateZones(b); err != nil {
			return err
		}
		if err := checkSize(filepath.Join(dir, b.File), b.Size); err != nil {
			return err
		}
	}
	if t := m.Tail; t != nil {
		f, err := os.Open(filepath.Join(dir, t.File))
		if err != nil {
			return err
		}
		buf, err := readChecked(f, t.Size, true, t.CRC)
		f.Close()
		if err != nil {
			return err
		}
		t.buf = buf
	}
	if m.DictBytes < 0 {
		return fmt.Errorf("store: dictionary prefix of %d bytes", m.DictBytes)
	}
	if m.DictBytes > 0 {
		buf, err := readChecked(dict, m.DictBytes, false, m.DictCRC)
		if err != nil {
			return fmt.Errorf("store: dictionary: %w", err)
		}
		m.dict = buf
	}
	return nil
}

// validateZones checks that each of a segment's zone maps is a real
// interval or the empty zone. The DP bounds are served from them without
// decoding, so a malformed zone must fail the commit rather than reach
// NumRange. (Whether the zones match the segment's values is checked when
// the segment is decoded.)
func validateZones(b *manifestBlock) error {
	for j, z := range decodeZones(b.Zones) {
		if !(z.min <= z.max) && z != emptyZone {
			return fmt.Errorf("store: %s: column %d zone [%g, %g] is not an interval", b.File, j, z.min, z.max)
		}
	}
	return nil
}

// readChecked reads the first size bytes of f — which must hold exactly
// size bytes when exact is set, and at least size otherwise — and fails
// unless their CRC-32 is crc. It reads at offset 0 and leaves f's offset
// where it was.
func readChecked(f *os.File, size int64, exact bool, crc uint32) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() != size && (exact || fi.Size() < size || size < 0) {
		return nil, fmt.Errorf("store: %s: size %d, manifest says %d", f.Name(), fi.Size(), size)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("store: %s: %w", f.Name(), err)
	}
	if crc32.ChecksumIEEE(buf) != crc {
		return nil, fmt.Errorf("store: %s: checksum mismatch", f.Name())
	}
	return buf, nil
}

// checkSize fails unless the file at path has exactly size bytes.
func checkSize(path string, size int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.Size() != size {
		return fmt.Errorf("store: %s: size %d, manifest says %d", path, fi.Size(), size)
	}
	return nil
}

// recoverManifest picks the newest fully-valid manifest in dir, deleting
// any newer (torn or corrupted) ones so they can never shadow the adopted
// state, and returns it with its sequence number and the directory
// listing it recovered from. dict is the open DICT file. An error naming
// the first failure is returned when no manifest validates.
func recoverManifest(dir string, dict *os.File) (*manifest, uint64, []string, error) {
	names, err := listDir(dir)
	if err != nil {
		return nil, 0, nil, err
	}
	seqs := manifestSeqs(names)
	if len(seqs) == 0 {
		return nil, 0, nil, fmt.Errorf("store: no manifest in %s", dir)
	}
	var firstErr error
	for _, seq := range seqs {
		path := filepath.Join(dir, manifestFileName(seq))
		m, err := readManifest(path)
		if err == nil {
			err = validateManifest(dir, m, dict)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// Adopted: anything newer failed validation — remove it so later
		// commits and cleanups reason only about manifests that were ever
		// servable.
		for _, bad := range seqs {
			if bad > seq {
				os.Remove(filepath.Join(dir, manifestFileName(bad)))
			}
		}
		return m, seq, names, nil
	}
	return nil, 0, nil, fmt.Errorf("store: no valid manifest in %s: %w", dir, firstErr)
}

// sweepOrphans removes the data files among names, a listing of dir,
// that neither of the kept manifests references: segment files at
// ordinals past the committed list (torn seals), tail files from
// superseded commits, and the temp files of writes a crash or an error
// cut short. Best-effort — a failure leaves garbage, never breaks state.
func sweepOrphans(dir string, names []string, keep map[string]bool, committedSegs int) {
	for _, name := range names {
		switch {
		case strings.Contains(name, tmpInfix):
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, tailPrefix):
			if !keep[name] {
				os.Remove(filepath.Join(dir, name))
			}
		case strings.HasPrefix(name, segPrefix):
			if ord, err := strconv.Atoi(strings.TrimPrefix(name, segPrefix)); err == nil && ord >= committedSegs && !keep[name] {
				os.Remove(filepath.Join(dir, name))
			}
		}
	}
}
