package kvstore

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
)

// Blocked segment format. A segment's cells are packed into fixed-target-
// size blocks — the HFile/SSTable layout that caps resident memory at the
// encoded (compressed) bytes instead of the materialized []Cell slices.
// Inside a block, row keys are prefix-compressed against the previous
// entry with full keys re-anchored every blockRestartInterval entries
// (restart points), and the whole payload may be compressed by the store's
// block codec. Every block carries its own min/max row and Bloom filter so
// reads decode only the blocks their probe can touch; blocks never split a
// row, which is what makes a point read touch exactly one block.
//
// Encoded block payload layout (before compression):
//
//	entry*:   uvarint sharedRowLen   (0 at restart points)
//	          uvarint unsharedRowLen, unshared row bytes
//	          uvarint qualifierLen,   qualifier bytes
//	          varint  timestamp
//	          byte    flags           (bit0 = tombstone)
//	          uvarint valueLen,       value bytes
//	trailer:  uint32le restartOffset × nRestarts
//	          uint32le nRestarts
//
// The trailer's restart offsets anchor full row keys for partial decodes;
// the current reader materializes whole blocks (the block cache holds the
// decoded cells), and the offsets double as a structural checksum that the
// fuzzed decoder validates.

// blockRestartInterval is the entry count between full-row restart points.
const blockRestartInterval = 16

// DefaultBlockSize is the target encoded (pre-compression) payload size of
// one segment block when StoreOptions.BlockSizeBytes is zero. Blocks cut
// only at row boundaries, so a block holding one oversized row may exceed
// the target.
const DefaultBlockSize = 4096

// blockHandle is one resident block: the encoded payload plus the metadata
// reads use to skip it without decoding.
type blockHandle struct {
	data   []byte
	codec  blockCodec // may fall back to codecNone for incompressible blocks
	rawLen int        // decoded payload size (decompression sizing and bomb cap)
	count  int        // cells in the block
	minRow string
	maxRow string
	// bloom indexes the block's distinct rows: the second-level filter
	// behind the segment-level one, consulted by point reads before the
	// block is decoded.
	bloom *bloomFilter
}

// residentBytes is the handle's in-memory footprint: payload, key bounds,
// Bloom bits and a fixed struct overhead.
func (h *blockHandle) residentBytes() int {
	n := len(h.data) + len(h.minRow) + len(h.maxRow) + 64
	if h.bloom != nil {
		n += 8 * len(h.bloom.bits)
	}
	return n
}

// blockBuilder accumulates one block's entries.
type blockBuilder struct {
	buf      []byte
	restarts []uint32
	count    int
	prevRow  string
	minRow   string
	maxRow   string
	rows     []string // distinct rows, for the block Bloom filter
}

// add appends one cell. Cells must arrive in compareCells order.
func (b *blockBuilder) add(c *Cell) {
	restart := b.count%blockRestartInterval == 0
	if restart {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
	}
	shared := 0
	if !restart {
		shared = commonPrefixLen(b.prevRow, c.Row)
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(c.Row)-shared))
	b.buf = append(b.buf, c.Row[shared:]...)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(c.Qualifier)))
	b.buf = append(b.buf, c.Qualifier...)
	b.buf = binary.AppendVarint(b.buf, c.Timestamp)
	var flags byte
	if c.Tombstone {
		flags = 1
	}
	b.buf = append(b.buf, flags)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(c.Value)))
	b.buf = append(b.buf, c.Value...)

	if b.count == 0 {
		b.minRow = c.Row
	}
	if b.count == 0 || c.Row != b.prevRow {
		b.rows = append(b.rows, c.Row)
	}
	b.maxRow = c.Row
	b.prevRow = c.Row
	b.count++
}

// encodedSize is the payload size so far (restart trailer excluded) — the
// segment builder's cut criterion.
func (b *blockBuilder) encodedSize() int { return len(b.buf) }

// finish seals the block: append the restart trailer, compress with the
// configured codec (falling back to identity when compression does not
// shrink the payload), and build the block Bloom filter.
func (b *blockBuilder) finish(codec blockCodec) (blockHandle, error) {
	raw := b.buf
	for _, off := range b.restarts {
		raw = binary.LittleEndian.AppendUint32(raw, off)
	}
	raw = binary.LittleEndian.AppendUint32(raw, uint32(len(b.restarts)))

	data, usedCodec := raw, codecNone
	if codec != codecNone {
		comp, err := compressBlock(codec, raw)
		if err != nil {
			return blockHandle{}, err
		}
		if len(comp) < len(raw) {
			data, usedCodec = comp, codec
		}
	}
	bloom := newBloomFilter(len(b.rows))
	for _, r := range b.rows {
		bloom.add(r)
	}
	return blockHandle{
		data:   append([]byte(nil), data...), // trim builder capacity
		codec:  usedCodec,
		rawLen: len(raw),
		count:  b.count,
		// Clone the bounds: compaction feeds the builder cells decoded
		// from older blocks, whose keys would pin those blocks' arenas.
		minRow: strings.Clone(b.minRow),
		maxRow: strings.Clone(b.maxRow),
		bloom:  bloom,
	}, nil
}

// reset clears the builder for the next block.
func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.count = 0
	b.prevRow = ""
	b.minRow = ""
	b.maxRow = ""
	b.rows = b.rows[:0]
}

// commonPrefixLen returns the length of the longest shared prefix.
func commonPrefixLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// blockArena is the pooled scratch a block decode rebuilds its row keys
// and qualifiers into: buf holds the key bytes, offs four offsets per cell
// (row start/end, qualifier start/end). It is reused across decodes, so a
// block costs one string allocation (the finished arena) instead of one
// per cell.
type blockArena struct {
	buf  []byte
	offs []int
}

var blockArenaPool = sync.Pool{New: func() any { return new(blockArena) }}

// maxPooledArena caps the scratch returned to the pool, so one oversized
// block does not pin its buffer for the life of the process.
const maxPooledArena = 1 << 20

// decodeBlockPayload parses a decoded (decompressed) block payload back
// into cells. Every read is bounds-checked: truncated or corrupt payloads
// return errors, never panic (the contract FuzzBlockDecode enforces).
// wantCells < 0 skips the count check (fuzzing arbitrary payloads).
//
// All cells of a block share one arena string: each Row and Qualifier is
// a slice of it, and Values alias raw. A cell field kept past the life of
// the decoded block (its cache entry or the scan that decoded it) pins the
// whole arena, so long-lived structures store strings.Clone copies.
func decodeBlockPayload(raw []byte, wantCells int) ([]Cell, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("kvstore: block payload %d bytes, shorter than its trailer", len(raw))
	}
	nRestarts := int(binary.LittleEndian.Uint32(raw[len(raw)-4:]))
	trailer := 4 + 4*nRestarts
	if nRestarts < 0 || trailer < 4 || trailer > len(raw) {
		return nil, fmt.Errorf("kvstore: block restart count %d overruns %d-byte payload", nRestarts, len(raw))
	}
	entries := raw[:len(raw)-trailer]
	restarts := raw[len(raw)-trailer : len(raw)-4]
	prevOff := -1
	for i := 0; i < nRestarts; i++ {
		off := int(binary.LittleEndian.Uint32(restarts[4*i:]))
		if off <= prevOff || off >= len(entries) && !(off == 0 && len(entries) == 0) {
			return nil, fmt.Errorf("kvstore: block restart offset %d invalid", off)
		}
		prevOff = off
	}

	var cells []Cell
	if wantCells > 0 {
		cells = make([]Cell, 0, wantCells)
	}
	arena := blockArenaPool.Get().(*blockArena)
	buf, offs := arena.buf[:0], arena.offs[:0]
	defer func() {
		if cap(buf) <= maxPooledArena {
			arena.buf, arena.offs = buf, offs
			blockArenaPool.Put(arena)
		}
	}()
	// The previous row and qualifier as offsets into buf. A row equal to
	// its predecessor (several qualifiers of one row) and a repeated
	// qualifier reuse the bytes already in buf.
	var rowStart, rowEnd, qualStart, qualEnd int
	off := 0
	for off < len(entries) {
		shared, n := binary.Uvarint(entries[off:])
		if n <= 0 || shared > uint64(rowEnd-rowStart) {
			return nil, fmt.Errorf("kvstore: block entry %d: bad shared row length", len(cells))
		}
		off += n
		unshared, n := binary.Uvarint(entries[off:])
		if n <= 0 || uint64(off+n)+unshared > uint64(len(entries)) {
			return nil, fmt.Errorf("kvstore: block entry %d: bad unshared row length", len(cells))
		}
		off += n
		if unshared > 0 || int(shared) < rowEnd-rowStart {
			start := len(buf)
			buf = append(buf, buf[rowStart:rowStart+int(shared)]...)
			buf = append(buf, entries[off:off+int(unshared)]...)
			rowStart, rowEnd = start, len(buf)
		}
		off += int(unshared)

		qlen, n := binary.Uvarint(entries[off:])
		if n <= 0 || uint64(off+n)+qlen > uint64(len(entries)) {
			return nil, fmt.Errorf("kvstore: block entry %d: bad qualifier length", len(cells))
		}
		off += n
		if qual := entries[off : off+int(qlen)]; string(qual) != string(buf[qualStart:qualEnd]) {
			qualStart = len(buf)
			buf = append(buf, qual...)
			qualEnd = len(buf)
		}
		off += int(qlen)

		ts, n := binary.Varint(entries[off:])
		if n <= 0 {
			return nil, fmt.Errorf("kvstore: block entry %d: bad timestamp", len(cells))
		}
		off += n
		if off >= len(entries) {
			return nil, fmt.Errorf("kvstore: block entry %d: missing flags", len(cells))
		}
		flags := entries[off]
		off++
		if flags > 1 {
			return nil, fmt.Errorf("kvstore: block entry %d: unknown flags %#x", len(cells), flags)
		}

		vlen, n := binary.Uvarint(entries[off:])
		if n <= 0 || uint64(off+n)+vlen > uint64(len(entries)) {
			return nil, fmt.Errorf("kvstore: block entry %d: bad value length", len(cells))
		}
		off += n
		var value []byte
		if vlen > 0 {
			// Values alias the decoded payload; blocks are immutable once
			// built, so sharing is safe and skips a copy per cell.
			value = entries[off : off+int(vlen) : off+int(vlen)]
		}
		off += int(vlen)

		cells = append(cells, Cell{Timestamp: ts, Value: value, Tombstone: flags == 1})
		offs = append(offs, rowStart, rowEnd, qualStart, qualEnd)
	}
	if wantCells >= 0 && len(cells) != wantCells {
		return nil, fmt.Errorf("kvstore: block decoded %d cells, want %d", len(cells), wantCells)
	}
	keys := string(buf)
	for i := range cells {
		o := offs[4*i : 4*i+4]
		cells[i].Row = keys[o[0]:o[1]]
		cells[i].Qualifier = keys[o[2]:o[3]]
	}
	return cells, nil
}

// decodeBlockHandle decompresses and parses one resident block.
func decodeBlockHandle(h *blockHandle) ([]Cell, error) {
	raw, err := decompressBlock(h.codec, h.data, h.rawLen)
	if err != nil {
		return nil, err
	}
	return decodeBlockPayload(raw, h.count)
}
