// Package modelstore gives DjiNN models a life outside the process:
// a versioned on-disk weight format, a strict validating reader, a
// zero-copy mmap loader, and a Registry that loads and evicts
// model versions at runtime under a memory budget. It is the piece
// that turns the fixed seven-app demo into a multi-tenant serving
// platform: models become files, files become mapped pages, and the
// kernel's page cache shares one copy of each model's weights across
// every replica process on the host.
//
// # File format
//
// A weight file (conventionally *.djw) is little-endian throughout:
//
//	preamble (16 bytes)
//	  magic      uint32  'DJWF'
//	  version    uint32  format version (currently 1)
//	  headerLen  uint32  bytes from file start through end of manifest
//	  headerCRC  uint32  CRC-32C of bytes [16, headerLen)
//	header
//	  nameLen    uint16  serving name (e.g. "imc"), 1..128 bytes
//	  name       nameLen bytes
//	  modelVer   uint32  model version (the @vN in "imc@v1"), >= 1
//	  defLen     uint32  network definition (nn netdef text)
//	  def        defLen bytes
//	  nparams    uint32  manifest entry count, >= 1
//	manifest, one entry per parameter tensor, in layer order
//	  nameLen    uint16  parameter name (e.g. "conv1.weight")
//	  name       nameLen bytes
//	  ndims      uint8   1..8
//	  dims       ndims × uint32
//	  offset     uint64  file offset of the section, 64-byte aligned
//	  size       uint64  section bytes, = 4 × product(dims)
//	  crc        uint32  CRC-32C of the section bytes
//	quant manifest (format version 2 only)
//	  nquant     uint32  quantized section count, 1..nparams
//	  then per entry:
//	  paramIdx   uint32  float manifest index, strictly increasing
//	  scaleBits  uint32  float32 bits of the symmetric scale (finite, > 0)
//	  zeroPoint  uint8   must be 0 (symmetric quantization; reserved)
//	  offset     uint64  file offset of the section, 64-byte aligned
//	  size       uint64  section bytes, = product(dims) (one int8 each)
//	  crc        uint32  CRC-32C of the section bytes
//	data sections
//	  raw float32 little-endian values at the manifest offsets,
//	  contiguous in manifest order modulo alignment padding; version 2
//	  files follow them with the raw int8 quantized sections, same
//	  contiguity rule; the last section ends exactly at end of file
//
// Sections are 64-byte aligned so that a page-aligned mapping of the
// file yields naturally aligned float32 views, and so tensor rows
// start on cache-line boundaries. The embedded netdef makes every
// file self-contained: the reader reconstructs the architecture from
// the definition and binds the sections to it by parameter name, so
// the Registry can serve a model it has no Go constructor for.
//
// Version 2 adds the optional quantized-weights manifest: the int8
// image of each conv/FC weight matrix under tensor.QuantizeSymmetric,
// stored next to the float32 truth. Int8 execution plans bind these
// sections directly (zero-copy under mmap), moving quantization cost
// from every process start to a single export. A version-1 file is
// exactly a version-2 file with no quant manifest; readers accept both.
package modelstore

import (
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

// Format constants. Limits exist so a corrupt or hostile header fails
// fast instead of driving huge allocations (mirrors internal/tensor's
// stream reader).
const (
	// Magic opens every weight file ("DJWF" little-endian).
	Magic = 0x46574a44
	// FormatVersion is the baseline on-disk version: float32 sections
	// only. The writer emits it whenever no quantized sections are
	// requested, keeping new files readable by old readers.
	FormatVersion = 1
	// FormatVersionQuant adds the optional quantized-weights manifest.
	FormatVersionQuant = 2
	// SectionAlign is the alignment of every tensor data section.
	SectionAlign = 64
	// MaxNameLen bounds model and parameter names; matches the service
	// protocol's application-name bound.
	MaxNameLen = 128
	// MaxModelVersion bounds the @vN model version.
	MaxModelVersion = 1 << 20
	// MaxDefLen bounds the embedded network definition.
	MaxDefLen = 1 << 20
	// MaxParams bounds the manifest entry count.
	MaxParams = 1 << 14
	// MaxDims bounds tensor rank, as in the tensor stream format.
	MaxDims = 8

	preambleLen  = 16
	maxHeaderLen = 1 << 24
	maxDim       = 1 << 28
	maxElems     = 1 << 30
)

// castagnoli is the CRC-32C table; the same polynomial hardware CRC
// instructions implement, and what Go's hash/crc32 accelerates.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether float32 values can be viewed
// directly over mapped file bytes. On big-endian hosts the loader
// falls back to a decoding copy.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ParamSection describes one parameter tensor's section in a weight
// file.
type ParamSection struct {
	Name   string
	Shape  []int
	Offset int64 // file offset, SectionAlign-aligned
	Size   int64 // bytes, = 4 × element count
	CRC    uint32
}

// Elems returns the section's element count.
func (s ParamSection) Elems() int {
	n := 1
	for _, d := range s.Shape {
		n *= d
	}
	return n
}

// QuantSection describes one quantized weight section in a version-2
// file: the int8 image of the float manifest entry at ParamIdx.
type QuantSection struct {
	ParamIdx int     // index into Meta.Params
	Scale    float32 // symmetric dequantization scale, finite and > 0
	Offset   int64   // file offset, SectionAlign-aligned
	Size     int64   // bytes, = element count (one int8 per element)
	CRC      uint32
}

// Meta is a weight file's parsed header: identity, architecture
// definition, and the section manifest.
type Meta struct {
	Name    string
	Version int
	Def     string
	Params  []ParamSection
	// Format is the file's on-disk format version (1 or 2).
	Format int
	// Quant lists the quantized weight sections; empty for version-1
	// files.
	Quant []QuantSection
	// FileSize is the total file size the header commits to (end of
	// the last section).
	FileSize int64
}

// ID returns the model's identity.
func (m *Meta) ID() ID { return ID{Name: m.Name, Version: m.Version} }

// WeightBytes returns the total float32 tensor section bytes
// (excluding header, alignment padding and quantized sections).
func (m *Meta) WeightBytes() int64 {
	var n int64
	for _, p := range m.Params {
		n += p.Size
	}
	return n
}

// QuantBytes returns the total quantized section bytes (zero for
// version-1 files).
func (m *Meta) QuantBytes() int64 {
	var n int64
	for _, q := range m.Quant {
		n += q.Size
	}
	return n
}

// align64 rounds off up to the next SectionAlign boundary.
func align64(off int64) int64 {
	return (off + SectionAlign - 1) &^ (SectionAlign - 1)
}

// parseMeta validates and decodes a header from b, the first bytes of
// a file of fileSize total bytes (b may be the whole file; it must
// include the complete header). It returns the parsed metadata and
// the header length. Every structural invariant of the format is
// checked here — magic, version, header CRC, name/def/manifest
// bounds, duplicate parameter names, section alignment, contiguity,
// and that sections fit the file exactly — so both the strict reader
// and the mmap loader share one definition of "valid".
func parseMeta(b []byte, fileSize int64) (*Meta, int, error) {
	if len(b) < preambleLen {
		return nil, 0, fmt.Errorf("modelstore: file too small for preamble (%d bytes)", len(b))
	}
	if got := le32(b[0:]); got != Magic {
		return nil, 0, fmt.Errorf("modelstore: bad magic %#x (want %#x)", got, uint32(Magic))
	}
	format := int(le32(b[4:]))
	if format != FormatVersion && format != FormatVersionQuant {
		return nil, 0, fmt.Errorf("modelstore: unsupported format version %d (want %d or %d)", format, FormatVersion, FormatVersionQuant)
	}
	headerLen := int64(le32(b[8:]))
	wantCRC := le32(b[12:])
	if headerLen < preambleLen+11 || headerLen > maxHeaderLen {
		return nil, 0, fmt.Errorf("modelstore: implausible header length %d", headerLen)
	}
	if headerLen > fileSize {
		return nil, 0, fmt.Errorf("modelstore: header length %d exceeds file size %d (truncated header)", headerLen, fileSize)
	}
	if headerLen > int64(len(b)) {
		return nil, 0, fmt.Errorf("modelstore: header length %d exceeds available bytes %d (truncated header)", headerLen, len(b))
	}
	if got := crc32.Checksum(b[preambleLen:headerLen], castagnoli); got != wantCRC {
		return nil, 0, fmt.Errorf("modelstore: header checksum mismatch (%#x != %#x)", got, wantCRC)
	}

	cur := cursor{b: b[:headerLen], off: preambleLen}
	name, err := cur.str("model name")
	if err != nil {
		return nil, 0, err
	}
	if err := CheckName(name); err != nil {
		return nil, 0, err
	}
	ver, err := cur.u32("model version")
	if err != nil {
		return nil, 0, err
	}
	if ver < 1 || ver > MaxModelVersion {
		return nil, 0, fmt.Errorf("modelstore: implausible model version %d", ver)
	}
	defLen, err := cur.u32("definition length")
	if err != nil {
		return nil, 0, err
	}
	if defLen == 0 || defLen > MaxDefLen {
		return nil, 0, fmt.Errorf("modelstore: implausible definition length %d", defLen)
	}
	def, err := cur.bytes(int(defLen), "definition")
	if err != nil {
		return nil, 0, err
	}
	nparams, err := cur.u32("parameter count")
	if err != nil {
		return nil, 0, err
	}
	if nparams == 0 || nparams > MaxParams {
		return nil, 0, fmt.Errorf("modelstore: implausible parameter count %d", nparams)
	}

	meta := &Meta{
		Name:    name,
		Version: int(ver),
		Def:     string(def),
		Format:  format,
		Params:  make([]ParamSection, 0, nparams),
	}
	seen := make(map[string]bool, nparams)
	next := align64(headerLen)
	for i := 0; i < int(nparams); i++ {
		pname, err := cur.str("parameter name")
		if err != nil {
			return nil, 0, err
		}
		if seen[pname] {
			return nil, 0, fmt.Errorf("modelstore: duplicate parameter %q in manifest", pname)
		}
		seen[pname] = true
		nd, err := cur.u8("dimension count")
		if err != nil {
			return nil, 0, err
		}
		if nd == 0 || nd > MaxDims {
			return nil, 0, fmt.Errorf("modelstore: parameter %q: implausible dimension count %d", pname, nd)
		}
		shape := make([]int, nd)
		elems := int64(1)
		for j := range shape {
			d, err := cur.u32("dimension")
			if err != nil {
				return nil, 0, err
			}
			if d == 0 || d > maxDim {
				return nil, 0, fmt.Errorf("modelstore: parameter %q: implausible dimension %d", pname, d)
			}
			shape[j] = int(d)
			elems *= int64(d)
			if elems > maxElems {
				return nil, 0, fmt.Errorf("modelstore: parameter %q too large (%v)", pname, shape)
			}
		}
		offset, err := cur.u64("section offset")
		if err != nil {
			return nil, 0, err
		}
		size, err := cur.u64("section size")
		if err != nil {
			return nil, 0, err
		}
		crc, err := cur.u32("section checksum")
		if err != nil {
			return nil, 0, err
		}
		if int64(offset) != next {
			return nil, 0, fmt.Errorf("modelstore: parameter %q: section offset %d, want %d (sections must be aligned and contiguous)", pname, offset, next)
		}
		if int64(size) != 4*elems {
			return nil, 0, fmt.Errorf("modelstore: parameter %q: section size %d does not match shape %v (%d bytes)", pname, size, shape, 4*elems)
		}
		if int64(offset)+int64(size) > fileSize {
			return nil, 0, fmt.Errorf("modelstore: parameter %q: section [%d, %d) exceeds file size %d (oversized section)", pname, offset, int64(offset)+int64(size), fileSize)
		}
		next = align64(int64(offset) + int64(size))
		meta.Params = append(meta.Params, ParamSection{
			Name:   pname,
			Shape:  shape,
			Offset: int64(offset),
			Size:   int64(size),
			CRC:    crc,
		})
	}
	if format >= FormatVersionQuant {
		// The quantized sections sit after the float sections under the
		// same alignment and contiguity rules, so `next` simply keeps
		// advancing.
		nquant, err := cur.u32("quantized section count")
		if err != nil {
			return nil, 0, err
		}
		if nquant == 0 || nquant > nparams {
			return nil, 0, fmt.Errorf("modelstore: implausible quantized section count %d (have %d parameters)", nquant, nparams)
		}
		meta.Quant = make([]QuantSection, 0, nquant)
		prevIdx := -1
		for i := 0; i < int(nquant); i++ {
			idx, err := cur.u32("quantized parameter index")
			if err != nil {
				return nil, 0, err
			}
			if int(idx) >= len(meta.Params) {
				return nil, 0, fmt.Errorf("modelstore: quantized section %d references parameter %d of %d", i, idx, len(meta.Params))
			}
			if int(idx) <= prevIdx {
				return nil, 0, fmt.Errorf("modelstore: quantized section %d: parameter index %d not strictly increasing", i, idx)
			}
			prevIdx = int(idx)
			scaleBits, err := cur.u32("quantization scale")
			if err != nil {
				return nil, 0, err
			}
			scale := math.Float32frombits(scaleBits)
			if !(scale > 0) || math.IsInf(float64(scale), 0) {
				return nil, 0, fmt.Errorf("modelstore: quantized section %d: implausible scale %v", i, scale)
			}
			zp, err := cur.u8("zero point")
			if err != nil {
				return nil, 0, err
			}
			if zp != 0 {
				return nil, 0, fmt.Errorf("modelstore: quantized section %d: nonzero zero point %d (symmetric scheme)", i, zp)
			}
			offset, err := cur.u64("quantized section offset")
			if err != nil {
				return nil, 0, err
			}
			size, err := cur.u64("quantized section size")
			if err != nil {
				return nil, 0, err
			}
			crc, err := cur.u32("quantized section checksum")
			if err != nil {
				return nil, 0, err
			}
			ref := meta.Params[idx]
			if int64(offset) != next {
				return nil, 0, fmt.Errorf("modelstore: quantized section for %q: offset %d, want %d (sections must be aligned and contiguous)", ref.Name, offset, next)
			}
			if int64(size) != int64(ref.Elems()) {
				return nil, 0, fmt.Errorf("modelstore: quantized section for %q: size %d does not match shape %v (%d bytes)", ref.Name, size, ref.Shape, ref.Elems())
			}
			if int64(offset)+int64(size) > fileSize {
				return nil, 0, fmt.Errorf("modelstore: quantized section for %q: section [%d, %d) exceeds file size %d", ref.Name, offset, int64(offset)+int64(size), fileSize)
			}
			next = align64(int64(offset) + int64(size))
			meta.Quant = append(meta.Quant, QuantSection{
				ParamIdx: int(idx),
				Scale:    scale,
				Offset:   int64(offset),
				Size:     int64(size),
				CRC:      crc,
			})
		}
	}
	if cur.off != int(headerLen) {
		return nil, 0, fmt.Errorf("modelstore: %d bytes of trailing junk in header", int(headerLen)-cur.off)
	}
	last := meta.Params[len(meta.Params)-1]
	meta.FileSize = last.Offset + last.Size
	if len(meta.Quant) > 0 {
		lq := meta.Quant[len(meta.Quant)-1]
		meta.FileSize = lq.Offset + lq.Size
	}
	if meta.FileSize != fileSize {
		return nil, 0, fmt.Errorf("modelstore: file size %d, header commits to %d", fileSize, meta.FileSize)
	}
	return meta, int(headerLen), nil
}

// cursor is a bounds-checked little-endian reader over a header.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) bytes(n int, what string) ([]byte, error) {
	if n < 0 || c.off+n > len(c.b) {
		return nil, fmt.Errorf("modelstore: truncated header reading %s", what)
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v, nil
}

func (c *cursor) u8(what string) (uint8, error) {
	b, err := c.bytes(1, what)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *cursor) u16(what string) (uint16, error) {
	b, err := c.bytes(2, what)
	if err != nil {
		return 0, err
	}
	return uint16(b[0]) | uint16(b[1])<<8, nil
}

func (c *cursor) u32(what string) (uint32, error) {
	b, err := c.bytes(4, what)
	if err != nil {
		return 0, err
	}
	return le32(b), nil
}

func (c *cursor) u64(what string) (uint64, error) {
	b, err := c.bytes(8, what)
	if err != nil {
		return 0, err
	}
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32, nil
}

func (c *cursor) str(what string) (string, error) {
	n, err := c.u16(what + " length")
	if err != nil {
		return "", err
	}
	if n == 0 || n > MaxNameLen {
		return "", fmt.Errorf("modelstore: implausible %s length %d", what, n)
	}
	b, err := c.bytes(int(n), what)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
