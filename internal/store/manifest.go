package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
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
//	TAIL-000000000S   open-tail rows at commit S (tailMagic block file)
//	MANIFEST-000000000S  commit S
//
// A manifest file is: 8-byte magic "P3DMAN01", u32 payload length, JSON
// payload, u32 CRC-32 of the payload. Commits write the manifest to a temp
// file, fsync it, atomically rename it to its sequence name, and fsync the
// directory — so a manifest either exists completely or not at all, and
// every file it references was fsync'd before the rename. Recovery (Open)
// walks manifests newest-first and adopts the first one whose own checksum
// verifies and whose referenced files check out (see validateManifest);
// anything newer is a torn or corrupted commit and is deleted, and Open's
// commit sweeps the files no kept manifest references (the torn tail of a
// crashed ingest, temp files). The two newest manifests are kept after
// each commit so external corruption of the newest still leaves a valid
// fallback; every other commit removes the manifest and tail file it
// supersedes by name, without listing the directory.
const (
	manifestMagic  = "P3DMAN01"
	manifestPrefix = "MANIFEST-"
	segPrefix      = "SEG-"
	tailPrefix     = "TAIL-"
	dictFileName   = "DICT"
	lockFileName   = "LOCK"
	tmpInfix       = ".tmp" // in the name of every file a write has yet to rename
)

// manifestBlock describes one committed block file (sealed segment or
// tail): its name, row count, exact file size, checksum of the whole file,
// the decoded in-memory footprint (what the resident-tier memory cap
// accounts, unknowable from the file size alone because NaN counts change
// index shapes), and — for sealed segments — one zone map per schema
// column as the IEEE-754 bit patterns of [min, max], so −0, ±Inf and the
// empty zone of an all-NaN column round-trip exactly (JSON numbers cannot
// carry ±Inf). Manifests written before zones were persisted omit them.
type manifestBlock struct {
	File    string      `json:"file"`
	Rows    int         `json:"rows"`
	Size    int64       `json:"size"`
	CRC     uint32      `json:"crc"`
	Decoded int64       `json:"decoded,omitempty"`
	Zones   [][2]uint64 `json:"zones,omitempty"`

	// legacy is set by validation when the file is a SEG v1 or v2
	// segment, whose recorded Decoded is the footprint of the raw columns
	// and 32-bit indexes those formats decoded to.
	legacy bool
}

// encodeZones converts a segment's zone maps to their manifest form.
func encodeZones(zs []zone) [][2]uint64 {
	out := make([][2]uint64, len(zs))
	for j, z := range zs {
		out[j] = [2]uint64{math.Float64bits(z.min), math.Float64bits(z.max)}
	}
	return out
}

// decodeZones is encodeZones' inverse; nil stays nil (a legacy manifest).
func decodeZones(bits [][2]uint64) []zone {
	if bits == nil {
		return nil
	}
	zs := make([]zone, len(bits))
	for j, b := range bits {
		zs[j] = zone{math.Float64frombits(b[0]), math.Float64frombits(b[1])}
	}
	return zs
}

// manifest is commit S's full description of the durable state.
type manifest struct {
	SegSize   int                 `json:"seg_size"`
	Shards    int                 `json:"shards"`
	Epoch     uint64              `json:"epoch"`
	Version   uint64              `json:"version"` // informational; epoch is what recovery needs
	Attrs     []dataset.Attribute `json:"attrs"`
	DictLen   int                 `json:"dict_len"`   // committed dictionary entries
	DictBytes int64               `json:"dict_bytes"` // committed DICT prefix length
	DictCRC   uint32              `json:"dict_crc"`   // CRC-32 of that prefix
	Segments  []manifestBlock     `json:"segments"`
	Tail      *manifestBlock      `json:"tail,omitempty"`
}

func segFileName(ord int) string { return fmt.Sprintf("%s%08d", segPrefix, ord) }

func tailFileName(seq uint64) string { return fmt.Sprintf("%s%010d", tailPrefix, seq) }

func manifestFileName(seq uint64) string { return fmt.Sprintf("%s%010d", manifestPrefix, seq) }

// manifestSeq parses the sequence number out of a manifest file name.
func manifestSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, manifestPrefix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(name, manifestPrefix), 10, 64)
	return n, err == nil
}

// listManifests returns the manifest sequence numbers present in dir,
// newest first.
func listManifests(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := manifestSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] > seqs[b] })
	return seqs, nil
}

// writeManifest commits m as sequence seq: temp write + fsync + atomic
// rename + directory fsync.
func writeManifest(dir string, seq uint64, m *manifest) error {
	buf, err := encodeManifest(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "manifest"+tmpInfix+"*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, manifestFileName(seq))); err != nil {
		return err
	}
	return syncDir(dir)
}

// encodeManifest renders m as the bytes of a manifest file.
func encodeManifest(m *manifest) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(manifestMagic)+8+len(payload))
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload)), nil
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

// decodeManifest parses and checksum-verifies the bytes of one manifest
// file.
func decodeManifest(raw []byte) (*manifest, error) {
	if len(raw) < len(manifestMagic)+8 || string(raw[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("not a manifest")
	}
	n := binary.LittleEndian.Uint32(raw[len(manifestMagic):])
	body := raw[len(manifestMagic)+4:]
	if uint32(len(body)) != n+4 {
		return nil, fmt.Errorf("truncated manifest (%d payload bytes, header says %d)", len(body)-4, n)
	}
	payload, sum := body[:n], binary.LittleEndian.Uint32(body[n:])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("manifest checksum mismatch")
	}
	var m manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// validateManifest checks the manifest's segment size (checkSegmentSize:
// a size a store could never have sealed would otherwise open as the
// default and fail every row-count check) and every file the manifest
// references. Sealed segment files are checked for existence and exact
// size only, and their magic is read to note SEG v1 and v2: their
// checksums are verified on every read (fileSource.Load), where the bytes
// are in memory anyway, so Open does not read the dataset. The tail file and the committed DICT prefix,
// which Open reads in full, are checksummed here, so a torn tail or
// dictionary fails the commit and recovery falls back to the previous one.
func validateManifest(dir string, m *manifest) error {
	if err := checkSegmentSize(m.SegSize); err != nil {
		return err
	}
	for i := range m.Segments {
		b := &m.Segments[i]
		if err := validateZones(b, len(m.Attrs)); err != nil {
			return err
		}
		if err := validateSegmentFile(dir, b); err != nil {
			return err
		}
	}
	if m.Tail != nil {
		if err := validateTailFile(dir, m.Tail); err != nil {
			return err
		}
	}
	if m.DictBytes > 0 {
		crc, err := fileCRC(filepath.Join(dir, dictFileName), m.DictBytes)
		if err != nil {
			return fmt.Errorf("store: dictionary: %w", err)
		}
		if crc != m.DictCRC {
			return fmt.Errorf("store: dictionary checksum mismatch over committed prefix")
		}
	}
	return nil
}

// validateZones checks a segment's zone maps are well formed: one per
// schema column, each a real interval or the empty zone. The DP bounds are
// served from them without decoding, so a malformed array must fail the
// commit rather than reach NumRange. (Whether the zones match the segment's
// values is checked when the segment is decoded.)
func validateZones(b *manifestBlock, cols int) error {
	if b.Zones == nil {
		return nil
	}
	if len(b.Zones) != cols {
		return fmt.Errorf("store: %s: %d zone maps, schema has %d columns", b.File, len(b.Zones), cols)
	}
	for j, z := range decodeZones(b.Zones) {
		if !(z.min <= z.max) && z != emptyZone {
			return fmt.Errorf("store: %s: column %d zone [%g, %g] is not an interval", b.File, j, z.min, z.max)
		}
	}
	return nil
}

// validateSegmentFile checks that b's segment file has its recorded size
// and notes from its magic whether it is a SEG v1 or v2 segment.
func validateSegmentFile(dir string, b *manifestBlock) error {
	path := filepath.Join(dir, b.File)
	if err := checkSize(path, b.Size); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var head [len(segMagic)]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	b.legacy = string(head[:]) == segMagicV1 || string(head[:]) == segMagicV2
	return nil
}

// validateTailFile checks the tail file against its recorded size and CRC.
func validateTailFile(dir string, b *manifestBlock) error {
	path := filepath.Join(dir, b.File)
	if err := checkSize(path, b.Size); err != nil {
		return err
	}
	crc, err := fileCRC(path, b.Size)
	if err != nil {
		return err
	}
	if crc != b.CRC {
		return fmt.Errorf("store: %s: checksum mismatch", path)
	}
	return nil
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
// state, and returns its sequence number. An error naming the first
// failure is returned when no manifest validates.
func recoverManifest(dir string) (*manifest, uint64, error) {
	seqs, err := listManifests(dir)
	if err != nil {
		return nil, 0, err
	}
	if len(seqs) == 0 {
		return nil, 0, fmt.Errorf("store: no manifest in %s", dir)
	}
	var firstErr error
	for _, seq := range seqs {
		path := filepath.Join(dir, manifestFileName(seq))
		m, err := readManifest(path)
		if err == nil {
			err = validateManifest(dir, m)
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
		return m, seq, nil
	}
	return nil, 0, fmt.Errorf("store: no valid manifest in %s: %w", dir, firstErr)
}

// sweepOrphans removes data files referenced by neither of the kept
// manifests: segment files at ordinals past the committed list (torn
// seals), tail files from superseded commits, and the temp files of writes
// a crash or an error cut short. Best-effort — a failure leaves garbage,
// never breaks state.
func sweepOrphans(dir string, keep map[string]bool, committedSegs int) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
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
