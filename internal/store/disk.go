package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"privacy3d/internal/dataset"
)

// On-disk sealed-segment format (little-endian throughout):
//
//	magic   8B  "P3DSEG02" (tail files use "P3DTAIL1")
//	ncols   u32 column count (must match the schema)
//	rows    u32 rows in the block
//	base    u64 global row index of the first row
//	per column, in schema order:
//	  tag   u8  1 = numeric, 2 = categorical
//	  numeric:     rows × f64 values
//	               permLen u32, then permLen × u32 perm,
//	               (rows-permLen) × u32 nan rows
//	  categorical: rows × u32 dictionary codes
//	               rows × u32 perm
//	crc     u32 CRC-32 (IEEE) over everything before it
//
// The permutations are persisted exactly as buildSegData produced them,
// and the zone maps are derived from them and the columns on decode
// exactly as at seal time, so a decoded segment is
// bit-for-bit the segData that was sealed — byte-identical answers across
// tiers reduce to that equality. The v1 format ("P3DSEG01") also carried a
// sorted copy of every index (permLen × f64 after a numeric perm, rows ×
// u32 after a categorical one); v1 files still decode, skipping those
// blocks. Tail files persist only the raw columns because the tail is
// always evaluated by the compiled scan.
const (
	segMagic   = "P3DSEG02"
	segMagicV1 = "P3DSEG01"
	tailMagic  = "P3DTAIL1"

	tagNumeric     = 1
	tagCategorical = 2
)

// crcWriter tees writes into a running CRC-32. Typed slices are encoded
// into buf a chunk at a time, so each chunk costs one CRC update and one
// write rather than one of each per value.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	buf []byte
}

// crcChunk is the most bytes f64s and u32s encode per CRC update and write.
const crcChunk = 64 << 10

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

func (cw *crcWriter) u8(v uint8) error { return cw.bytes([]byte{v}) }

func (cw *crcWriter) u32(v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return cw.bytes(b[:])
}

func (cw *crcWriter) u64(v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return cw.bytes(b[:])
}

func (cw *crcWriter) bytes(p []byte) error {
	_, err := cw.Write(p)
	return err
}

// chunk returns the encode buffer, allocated on first use.
func (cw *crcWriter) chunk() []byte {
	if cw.buf == nil {
		cw.buf = make([]byte, crcChunk)
	}
	return cw.buf
}

func (cw *crcWriter) f64s(vals []float64) error {
	buf := cw.chunk()
	for len(vals) > 0 {
		n := min(len(vals), len(buf)/8)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		if err := cw.bytes(buf[:n*8]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func (cw *crcWriter) u32s(vals []uint32) error {
	buf := cw.chunk()
	for len(vals) > 0 {
		n := min(len(vals), len(buf)/4)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], v)
		}
		if err := cw.bytes(buf[:n*4]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// writeBlockFile writes one sealed segment (idx non-nil, in the current
// segment format) or tail block to name inside dir via tmp + fsync +
// atomic rename, returning the final size and CRC (of the whole file,
// footer included, for manifest validation). nums/cats are the block's
// columns in schema order; for sealed segments they are the segData's own
// slices.
func writeBlockFile(dir, name string, base int, rows int, nums [][]float64, cats [][]uint32, idx *segData) (int64, uint32, error) {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(tmp.Name())
	cw := &crcWriter{w: bufio.NewWriter(tmp)}
	magic := tailMagic
	if idx != nil {
		magic = segMagic
	}
	if err := cw.bytes([]byte(magic)); err != nil {
		return 0, 0, err
	}
	ncols := len(nums)
	if err := cw.u32(uint32(ncols)); err != nil {
		return 0, 0, err
	}
	if err := cw.u32(uint32(rows)); err != nil {
		return 0, 0, err
	}
	if err := cw.u64(uint64(base)); err != nil {
		return 0, 0, err
	}
	for j := 0; j < ncols; j++ {
		switch {
		case nums[j] != nil:
			if err := cw.u8(tagNumeric); err != nil {
				return 0, 0, err
			}
			if err := cw.f64s(nums[j][:rows]); err != nil {
				return 0, 0, err
			}
			if idx != nil {
				ni := &idx.nidx[j]
				if err := cw.u32(uint32(len(ni.perm))); err != nil {
					return 0, 0, err
				}
				if err := cw.u32s(ni.perm); err != nil {
					return 0, 0, err
				}
				if err := cw.u32s(ni.nan); err != nil {
					return 0, 0, err
				}
			}
		case cats[j] != nil:
			if err := cw.u8(tagCategorical); err != nil {
				return 0, 0, err
			}
			if err := cw.u32s(cats[j][:rows]); err != nil {
				return 0, 0, err
			}
			if idx != nil {
				if err := cw.u32s(idx.cidx[j].perm); err != nil {
					return 0, 0, err
				}
			}
		default:
			return 0, 0, fmt.Errorf("store: column %d has neither numeric nor categorical data", j)
		}
	}
	bodyCRC := cw.crc
	if err := cw.u32(bodyCRC); err != nil {
		return 0, 0, err
	}
	fileCRC := cw.crc // CRC including the footer, what the manifest records
	if err := cw.w.Flush(); err != nil {
		return 0, 0, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, 0, err
	}
	size, err := tmp.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, 0, err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return 0, 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, 0, err
	}
	return size, fileCRC, nil
}

// blockReader decodes a block file sequentially out of one buffer holding
// the whole file, read with a single ReadAt: typed columns decode straight
// from the buffer with no intermediate copies.
type blockReader struct {
	buf  []byte // the whole block file, CRC footer included
	off  int
	name string
}

// take returns the next n bytes of the block body.
func (br *blockReader) take(n int) ([]byte, error) {
	if br.off+n > len(br.buf)-4 { // never read into the CRC footer
		return nil, fmt.Errorf("store: %s: truncated block (want %d bytes at %d, size %d)", br.name, n, br.off, len(br.buf))
	}
	p := br.buf[br.off : br.off+n]
	br.off += n
	return p, nil
}

func (br *blockReader) u8() (uint8, error) {
	p, err := br.take(1)
	if err != nil {
		return 0, err
	}
	return p[0], nil
}

func (br *blockReader) u32() (uint32, error) {
	p, err := br.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}

func (br *blockReader) u64() (uint64, error) {
	p, err := br.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

func (br *blockReader) f64s(n int) ([]float64, error) {
	p, err := br.take(n * 8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	if hostLittleEndian {
		copy(sliceBytes(out), p)
	} else {
		decodeF64s(out, p)
	}
	return out, nil
}

func (br *blockReader) u32s(n int) ([]uint32, error) {
	p, err := br.take(n * 4)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	if hostLittleEndian {
		copy(sliceBytes(out), p)
	} else {
		decodeU32s(out, p)
	}
	return out, nil
}

// hostLittleEndian reports whether the host stores words little-endian,
// as the block format does: then a decoded slice's memory is exactly the
// file's bytes, and f64s and u32s fill it with one copy.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// sliceBytes views a typed slice's memory as bytes. The view starts at the
// slice's own aligned first element, so copying file bytes into it never
// forms a misaligned pointer.
func sliceBytes[T float64 | uint32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// decodeF64s and decodeU32s decode little-endian values one at a time:
// the big-endian fallback of f64s and u32s.
func decodeF64s(out []float64, p []byte) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
	}
}

func decodeU32s(out []uint32, p []byte) {
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p[i*4:])
	}
}

// rowIDs decodes n row indexes of a block of rows rows, rejecting any that
// is out of range: the zone maps and every span index the column and the
// bitmap window through them.
func (br *blockReader) rowIDs(n, rows int, what string, col int) ([]uint32, error) {
	out, err := br.u32s(n)
	if err != nil {
		return nil, err
	}
	var top uint32
	for _, r := range out {
		top = max(top, r)
	}
	if len(out) > 0 && int(top) >= rows {
		return nil, fmt.Errorf("store: %s: column %d %s entry %d out of range (rows %d)", br.name, col, what, top, rows)
	}
	return out, nil
}

// decodeBlock decodes a block file into columns and, when withIndexes (a
// sealed segment, v2 or v1), the persisted permutations, from which it
// derives the zone maps. It validates structure — magic, column count,
// tags, index lengths, row indexes in range — so that any bytes decode to
// an error or to a segment every kernel can evaluate without a panic. It
// does not check the CRC: its callers do, over the same buffer, before
// decoding (fileSource.Load for sealed segments, Open's validation for
// the tail).
func decodeBlock(br *blockReader, attrs []dataset.Attribute, withIndexes bool) (base int, d *segData, err error) {
	head, err := br.take(8)
	if err != nil {
		return 0, nil, err
	}
	v1 := false
	switch magic := string(head); {
	case !withIndexes:
		if magic != tailMagic {
			return 0, nil, fmt.Errorf("store: %s: bad magic %q (want %q)", br.name, head, tailMagic)
		}
	case magic == segMagicV1:
		v1 = true
	case magic != segMagic:
		return 0, nil, fmt.Errorf("store: %s: bad magic %q (want %q or %q)", br.name, head, segMagic, segMagicV1)
	}
	ncols, err := br.u32()
	if err != nil {
		return 0, nil, err
	}
	if int(ncols) != len(attrs) {
		return 0, nil, fmt.Errorf("store: %s: %d columns, schema has %d", br.name, ncols, len(attrs))
	}
	rows32, err := br.u32()
	if err != nil {
		return 0, nil, err
	}
	rows := int(rows32)
	base64, err := br.u64()
	if err != nil {
		return 0, nil, err
	}
	d = &segData{
		n:    rows,
		nums: make([][]float64, len(attrs)),
		cats: make([][]uint32, len(attrs)),
		nidx: make([]numIndex, len(attrs)),
		cidx: make([]catIndex, len(attrs)),
	}
	for j, a := range attrs {
		tag, err := br.u8()
		if err != nil {
			return 0, nil, err
		}
		wantTag := uint8(tagCategorical)
		if a.Kind == dataset.Numeric {
			wantTag = tagNumeric
		}
		if tag != wantTag {
			return 0, nil, fmt.Errorf("store: %s: column %d tag %d, schema wants %d", br.name, j, tag, wantTag)
		}
		if tag == tagNumeric {
			if d.nums[j], err = br.f64s(rows); err != nil {
				return 0, nil, err
			}
			if !withIndexes {
				continue
			}
			permLen, err := br.u32()
			if err != nil {
				return 0, nil, err
			}
			if int(permLen) > rows {
				return 0, nil, fmt.Errorf("store: %s: column %d perm length %d > rows %d", br.name, j, permLen, rows)
			}
			ni := numIndex{}
			if ni.perm, err = br.rowIDs(int(permLen), rows, "perm", j); err != nil {
				return 0, nil, err
			}
			if v1 {
				if _, err := br.take(int(permLen) * 8); err != nil { // the sorted copy
					return 0, nil, err
				}
			}
			if ni.nan, err = br.rowIDs(rows-int(permLen), rows, "nan", j); err != nil {
				return 0, nil, err
			}
			if len(ni.nan) == 0 {
				ni.nan = nil
			}
			ni.min, ni.max = zoneEnds(d.nums[j], ni.perm)
			d.nidx[j] = ni
		} else {
			if d.cats[j], err = br.u32s(rows); err != nil {
				return 0, nil, err
			}
			if !withIndexes {
				continue
			}
			ci := catIndex{}
			if ci.perm, err = br.rowIDs(rows, rows, "perm", j); err != nil {
				return 0, nil, err
			}
			if v1 {
				if _, err := br.take(rows * 4); err != nil { // the sorted copy
					return 0, nil, err
				}
			}
			ci.min, ci.max = zoneEnds(d.cats[j], ci.perm)
			d.cidx[j] = ci
		}
	}
	if br.off != len(br.buf)-4 {
		return 0, nil, fmt.Errorf("store: %s: %d trailing bytes after block body", br.name, len(br.buf)-4-br.off)
	}
	return int(base64), d, nil
}

// fileCRC computes the CRC-32 (IEEE) of the first limit bytes of the
// file, streaming.
func fileCRC(path string, limit int64) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, io.LimitReader(f, limit))
	if err != nil {
		return 0, err
	}
	if n != limit {
		return 0, fmt.Errorf("store: %s: %d bytes, want at least %d", path, n, limit)
	}
	return h.Sum32(), nil
}

// syncDir fsyncs a directory so a just-renamed file is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
