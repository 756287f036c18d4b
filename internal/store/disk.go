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

// On-disk block formats (little-endian throughout). Both start with
//
//	magic   8B  "P3DSEG03" (sealed segment) or "P3DTAIL1" (open tail)
//	ncols   u32 column count (must match the schema)
//	rows    u32 rows in the block
//	base    u64 global row index of the first row
//
// then hold one block per column, in schema order, each opened by a tag u8
// (1 = numeric, 2 = categorical), and end with
//
//	crc     u32 CRC-32 (IEEE) over everything before it
//
// A sealed segment (SEG v3) column holds only its dictionary and its row
// codes:
//
//	ndict   u32 dictionary entries, 1..rows (0 for a 0-row block)
//	dict    ndict × f64 values (numeric) or ndict × u32 store-wide codes
//	        (categorical), strictly ascending in entryLess order
//	codes   rows × u16, each row's index into dict
//
// The index (perm, start, the NaN rows) is not stored: decodeSegment
// rebuilds it with indexCodes, the counting pass seal uses, so a decoded
// segment is bit-for-bit the segData that was sealed — byte-identical
// answers across tiers reduce to that equality — and a file has no
// permutation to get wrong. A tail column holds rows × f64 values or
// rows × u32 codes: the tail is always evaluated by the compiled scan.
//
// SEG v3 is the only segment format read. Files of the earlier formats
// ("P3DSEG01", "P3DSEG02") fail to decode on their magic, like any other
// unknown bytes.
const (
	segMagic  = "P3DSEG03"
	tailMagic = "P3DTAIL1"

	tagNumeric     = 1
	tagCategorical = 2
)

// crcWriter tees writes into a running CRC-32. Its write errors are the
// bufio.Writer's, which are sticky: once one fails every later write and
// the final Flush report it, so only the Flush is checked.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (cw *crcWriter) bytes(p []byte) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	cw.w.Write(p)
}

func (cw *crcWriter) u8(v uint8) { cw.bytes([]byte{v}) }

func (cw *crcWriter) u32(v uint32) { cw.bytes(binary.LittleEndian.AppendUint32(nil, v)) }

func (cw *crcWriter) u64(v uint64) { cw.bytes(binary.LittleEndian.AppendUint64(nil, v)) }

// header writes a block header.
func (cw *crcWriter) header(magic string, ncols, rows, base int) {
	cw.bytes([]byte(magic))
	cw.u32(uint32(ncols))
	cw.u32(uint32(rows))
	cw.u64(uint64(base))
}

// putSlice writes vals little-endian: on a little-endian host straight
// from the slice's own memory, one CRC update and one write for the whole
// slice.
func putSlice[T float64 | uint32 | uint16](cw *crcWriter, vals []T) {
	if hostLittleEndian {
		cw.bytes(sliceBytes(vals))
		return
	}
	cw.bytes(appendLE(nil, vals))
}

// writeFile writes a block file to name inside dir (writeAtomic): body
// writes everything before the CRC footer, which writeFile appends. It
// returns the final size and the CRC of the whole file, footer included,
// as the manifest records them.
func writeFile(dir, name string, body func(cw *crcWriter)) (size int64, fileCRC uint32, err error) {
	err = writeAtomic(dir, name, func(f *os.File) error {
		cw := &crcWriter{w: bufio.NewWriter(f)}
		body(cw)
		cw.u32(cw.crc)
		fileCRC = cw.crc
		if err := cw.w.Flush(); err != nil {
			return err
		}
		size, err = f.Seek(0, io.SeekCurrent)
		return err
	})
	return size, fileCRC, err
}

// writeAtomic is the store's one way to write a file: write fills a temp
// file in dir, which is fsync'd and atomically renamed to name, and then
// the directory is fsync'd. name so holds all of the bytes or none of
// them, durably, and a temp file a crash leaves carries tmpInfix for
// sweepOrphans to remove.
func writeAtomic(dir, name string, write func(f *os.File) error) error {
	tmp, err := os.CreateTemp(dir, name+tmpInfix+"*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
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
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// writeTailFile writes the first rows rows of the open tail's columns as
// a tail block.
func writeTailFile(dir, name string, base, rows int, nums [][]float64, cats [][]uint32) (int64, uint32, error) {
	for j := range nums {
		if nums[j] == nil && cats[j] == nil {
			return 0, 0, fmt.Errorf("store: column %d has neither numeric nor categorical data", j)
		}
	}
	return writeFile(dir, name, func(cw *crcWriter) {
		cw.header(tailMagic, len(nums), rows, base)
		for j := range nums {
			if nums[j] != nil {
				cw.u8(tagNumeric)
				putSlice(cw, nums[j][:rows])
			} else {
				cw.u8(tagCategorical)
				putSlice(cw, cats[j][:rows])
			}
		}
	})
}

// writeSegFile writes a sealed segment as a SEG v3 block.
func writeSegFile(dir, name string, base int, attrs []dataset.Attribute, d *segData) (int64, uint32, error) {
	return writeFile(dir, name, func(cw *crcWriter) {
		cw.header(segMagic, len(attrs), d.n, base)
		for j, a := range attrs {
			if a.Kind == dataset.Numeric {
				putCol(cw, tagNumeric, &d.nums[j])
			} else {
				putCol(cw, tagCategorical, &d.cats[j])
			}
		}
	})
}

// putCol writes one SEG v3 column: its tag, dictionary and codes.
func putCol[T float64 | uint32](cw *crcWriter, tag uint8, c *dictCol[T]) {
	cw.u8(tag)
	cw.u32(uint32(len(c.dict)))
	putSlice(cw, c.dict)
	putSlice(cw, c.codes)
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
	if n < 0 || br.off+n > len(br.buf)-4 { // never read into the CRC footer
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

// readSlice decodes n little-endian values into a new slice: on a
// little-endian host with one copy into the slice's own memory.
func readSlice[T float64 | uint32 | uint16](br *blockReader, n int) ([]T, error) {
	p, err := br.take(n * int(unsafe.Sizeof(*new(T))))
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	if hostLittleEndian {
		copy(sliceBytes(out), p)
	} else {
		decodeLE(out, p)
	}
	return out, nil
}

// hostLittleEndian reports whether the host stores words little-endian,
// as the block format does: then a slice's memory is exactly the file's
// bytes, and putSlice and readSlice move it with one write or copy.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// sliceBytes views a typed slice's memory as bytes. The view starts at the
// slice's own aligned first element, so copying file bytes into it never
// forms a misaligned pointer.
func sliceBytes[T float64 | uint32 | uint16](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// decodeLE and appendLE convert little-endian values one at a time: the
// big-endian fallbacks of readSlice and putSlice.
func decodeLE[T float64 | uint32 | uint16](out []T, p []byte) {
	switch o := any(out).(type) {
	case []float64:
		for i := range o {
			o[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
		}
	case []uint32:
		for i := range o {
			o[i] = binary.LittleEndian.Uint32(p[i*4:])
		}
	case []uint16:
		for i := range o {
			o[i] = binary.LittleEndian.Uint16(p[i*2:])
		}
	}
}

func appendLE[T float64 | uint32 | uint16](b []byte, vals []T) []byte {
	switch vs := any(vals).(type) {
	case []float64:
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	case []uint32:
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
	case []uint16:
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint16(b, v)
		}
	}
	return b
}

// header decodes a block header: the magic, which must be magic, the
// column count, which must match the schema, and the row count, which
// must fit a segment.
func (br *blockReader) header(attrs []dataset.Attribute, magic string) (rows, base int, err error) {
	head, err := br.take(8)
	if err != nil {
		return 0, 0, err
	}
	if string(head) != magic {
		return 0, 0, fmt.Errorf("store: %s: bad magic %q (want %q)", br.name, head, magic)
	}
	ncols, err := br.u32()
	if err != nil {
		return 0, 0, err
	}
	if int(ncols) != len(attrs) {
		return 0, 0, fmt.Errorf("store: %s: %d columns, schema has %d", br.name, ncols, len(attrs))
	}
	rows32, err := br.u32()
	if err != nil {
		return 0, 0, err
	}
	if rows32 > MaxSegmentSize {
		return 0, 0, fmt.Errorf("store: %s: %d rows, at most %d fit a segment", br.name, rows32, MaxSegmentSize)
	}
	base64, err := br.u64()
	if err != nil {
		return 0, 0, err
	}
	return int(rows32), int(base64), nil
}

// tag decodes column j's tag, which must match the schema's kind, and
// reports whether the column is numeric.
func (br *blockReader) tag(a dataset.Attribute, j int) (bool, error) {
	tag, err := br.u8()
	if err != nil {
		return false, err
	}
	want := uint8(tagCategorical)
	if a.Kind == dataset.Numeric {
		want = tagNumeric
	}
	if tag != want {
		return false, fmt.Errorf("store: %s: column %d tag %d, schema wants %d", br.name, j, tag, want)
	}
	return tag == tagNumeric, nil
}

// end checks that the body was read to its last byte.
func (br *blockReader) end() error {
	if br.off != len(br.buf)-4 {
		return fmt.Errorf("store: %s: %d trailing bytes after block body", br.name, len(br.buf)-4-br.off)
	}
	return nil
}

// The block decoders validate structure — magic, column count, tags,
// lengths, and for a segment the dictionary order and every code — so
// that any bytes decode to an error or to a block every kernel can
// evaluate without a panic. They do not check the CRC: their callers do,
// over the same buffer, before decoding (fileSource.Load for sealed
// segments, Open's validation for the tail).

// decodeTail decodes a tail block into raw columns.
func decodeTail(br *blockReader, attrs []dataset.Attribute) (base, rows int, nums [][]float64, cats [][]uint32, err error) {
	if rows, base, err = br.header(attrs, tailMagic); err != nil {
		return 0, 0, nil, nil, err
	}
	nums, cats = make([][]float64, len(attrs)), make([][]uint32, len(attrs))
	for j, a := range attrs {
		numeric, err := br.tag(a, j)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		if numeric {
			nums[j], err = readSlice[float64](br, rows)
		} else {
			cats[j], err = readSlice[uint32](br, rows)
		}
		if err != nil {
			return 0, 0, nil, nil, err
		}
	}
	return base, rows, nums, cats, br.end()
}

// decodeSegment decodes a SEG v3 segment file: each column's dictionary
// and codes, and the index rebuilt from them.
func decodeSegment(br *blockReader, attrs []dataset.Attribute) (base int, d *segData, err error) {
	rows, base, err := br.header(attrs, segMagic)
	if err != nil {
		return 0, nil, err
	}
	d = &segData{n: rows, nums: make([]dictCol[float64], len(attrs)), cats: make([]dictCol[uint32], len(attrs))}
	for j, a := range attrs {
		numeric, err := br.tag(a, j)
		if err != nil {
			return 0, nil, err
		}
		ndict, err := br.u32()
		if err != nil {
			return 0, nil, err
		}
		if int64(ndict) > int64(rows) {
			return 0, nil, fmt.Errorf("store: %s: column %d has %d dictionary entries for %d rows", br.name, j, ndict, rows)
		}
		if numeric {
			err = decodeCol(br, &d.nums[j], int(ndict), rows, j, entryLess)
		} else {
			err = decodeCol(br, &d.cats[j], int(ndict), rows, j, func(a, b uint32) bool { return a < b })
		}
		if err != nil {
			return 0, nil, err
		}
	}
	return base, d, br.end()
}

// decodeCol decodes one SEG v3 column into c: a dictionary strictly
// ascending by less — so it holds no duplicate bit pattern and no NaN
// before a number — and row codes that each name an entry, every entry
// named by some row.
func decodeCol[T float64 | uint32](br *blockReader, c *dictCol[T], ndict, rows, j int, less func(a, b T) bool) error {
	dict, err := readSlice[T](br, ndict)
	if err != nil {
		return err
	}
	c.nanFrom = ndict
	for k, v := range dict {
		if k > 0 && !less(dict[k-1], v) {
			return fmt.Errorf("store: %s: column %d dictionary entry %d is not above entry %d", br.name, j, k, k-1)
		}
		if v != v && c.nanFrom == ndict {
			c.nanFrom = k
		}
	}
	codes, err := readSlice[uint16](br, rows)
	if err != nil {
		return err
	}
	for i, k := range codes {
		if int(k) >= ndict {
			return fmt.Errorf("store: %s: column %d row %d has code %d, dictionary has %d entries", br.name, j, i, k, ndict)
		}
	}
	start, perm, ok := indexCodes(codes, ndict)
	if !ok {
		return fmt.Errorf("store: %s: column %d has a dictionary entry no row uses", br.name, j)
	}
	c.dict, c.codes, c.start, c.perm = dict, codes, start, perm
	return nil
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
