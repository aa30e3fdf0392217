package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func buildTestCells(rng *rand.Rand, rows, qualsPerRow int) []Cell {
	var cells []Cell
	for r := 0; r < rows; r++ {
		row := fmt.Sprintf("user-%06d", r*3)
		for q := 0; q < qualsPerRow; q++ {
			cells = append(cells, Cell{
				Row:       row,
				Qualifier: fmt.Sprintf("q%03d", q),
				Timestamp: int64(1000 - q),
				Value:     []byte(fmt.Sprintf("value-%d-%d-%06d", r, q, rng.Intn(1000))),
				Tombstone: rng.Intn(10) == 0,
			})
		}
	}
	return cells
}

func TestBlockRoundtripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cells := buildTestCells(rng, 40, 5)
	for _, codec := range []blockCodec{codecNone, codecFlate, codecSnappy} {
		var b blockBuilder
		for i := range cells {
			b.add(&cells[i])
		}
		h, err := b.finish(codec)
		if err != nil {
			t.Fatalf("codec %d: finish: %v", codec, err)
		}
		if h.count != len(cells) {
			t.Fatalf("codec %d: count %d, want %d", codec, h.count, len(cells))
		}
		if h.minRow != cells[0].Row || h.maxRow != cells[len(cells)-1].Row {
			t.Fatalf("codec %d: bounds [%q, %q]", codec, h.minRow, h.maxRow)
		}
		got, err := decodeBlockHandle(&h)
		if err != nil {
			t.Fatalf("codec %d: decode: %v", codec, err)
		}
		if len(got) != len(cells) {
			t.Fatalf("codec %d: decoded %d cells, want %d", codec, len(got), len(cells))
		}
		for i := range cells {
			if got[i].Row != cells[i].Row || got[i].Qualifier != cells[i].Qualifier ||
				got[i].Timestamp != cells[i].Timestamp || got[i].Tombstone != cells[i].Tombstone ||
				!bytes.Equal(got[i].Value, cells[i].Value) {
				t.Fatalf("codec %d: cell %d mismatch: got %v, want %v", codec, i, got[i], cells[i])
			}
		}
	}
}

// TestBlockDecodeKeysAcrossRestarts checks every decoded Row and Qualifier
// against the encoded cell when rows grow, shrink, repeat and share
// prefixes of every length on both sides of restart points.
func TestBlockDecodeKeysAcrossRestarts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[string]bool{"": true}
	rows := []string{""}
	for len(rows) < 40 {
		// Extend, truncate or branch a random earlier row, so shared
		// prefixes range from zero to the whole previous key.
		base := rows[rng.Intn(len(rows))]
		r := base[:rng.Intn(len(base)+1)] + string(rune('a'+rng.Intn(3)))
		if rng.Intn(4) == 0 {
			r += fmt.Sprintf("/user/%04d", rng.Intn(20))
		}
		if !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	sort.Strings(rows)
	var cells []Cell
	for _, r := range rows {
		for q, n := 0, 1+rng.Intn(3); q < n; q++ {
			for v := 0; v < 1+rng.Intn(2); v++ {
				cells = append(cells, Cell{Row: r, Qualifier: []string{"", "v", "visit"}[q], Timestamp: int64(10 - v), Value: []byte{byte(v)}})
			}
		}
	}
	var b blockBuilder
	for i := range cells {
		b.add(&cells[i])
	}
	if len(b.restarts) < 4 {
		t.Fatalf("only %d restart points; the test needs several", len(b.restarts))
	}
	h, err := b.finish(codecNone)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBlockHandle(&h)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("decoded %d cells, want %d", len(got), len(cells))
	}
	for i := range cells {
		if got[i].Row != cells[i].Row || got[i].Qualifier != cells[i].Qualifier || got[i].Timestamp != cells[i].Timestamp {
			t.Fatalf("cell %d (restart point: %v): got (%q, %q, %d), want (%q, %q, %d)", i, i%blockRestartInterval == 0,
				got[i].Row, got[i].Qualifier, got[i].Timestamp, cells[i].Row, cells[i].Qualifier, cells[i].Timestamp)
		}
	}
}

func TestBlockPrefixCompressionShrinksSharedPrefixRows(t *testing.T) {
	// 64 cells with a long shared row prefix: prefix compression alone
	// (codecNone) must beat the flat footprint of the row keys.
	var b blockBuilder
	var flat int
	for i := 0; i < 64; i++ {
		c := Cell{Row: fmt.Sprintf("network/facebook/user/%08d", i), Qualifier: "q", Timestamp: 1, Value: []byte("v")}
		flat += len(c.Row) + len(c.Qualifier) + len(c.Value) + cellOverhead
		b.add(&c)
	}
	h, err := b.finish(codecNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.data) >= flat {
		t.Fatalf("prefix-compressed block is %d bytes, flat equivalent %d", len(h.data), flat)
	}
}

func TestBlockCodecFallsBackOnIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b blockBuilder
	for i := 0; i < 20; i++ {
		v := make([]byte, 400)
		rng.Read(v)
		rk := make([]byte, 16)
		rng.Read(rk)
		c := Cell{Row: fmt.Sprintf("%04d", i) + string(rk), Qualifier: "q", Timestamp: 1, Value: v}
		b.add(&c)
	}
	h, err := b.finish(codecSnappy)
	if err != nil {
		t.Fatal(err)
	}
	if h.codec != codecNone {
		t.Fatalf("incompressible block kept codec %d, want fallback to none", h.codec)
	}
	if _, err := decodeBlockHandle(&h); err != nil {
		t.Fatalf("fallback block decode: %v", err)
	}
}

func TestCompressRoundtripLZ(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("abcabcabcabcabcabcabcabc"), // self-overlapping match
		bytes.Repeat([]byte("x"), 1000),    // long run
		bytes.Repeat([]byte("the quick brown fox "), 1000), // long input, many matches
	}
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 4096)
	rng.Read(random)
	cases = append(cases, random)
	for i, raw := range cases {
		comp := lzCompress(raw)
		got, err := lzDecompress(comp, len(raw))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("case %d: roundtrip mismatch (%d bytes in, %d out)", i, len(raw), len(got))
		}
	}
}

func TestCompressRoundtripFlate(t *testing.T) {
	raw := bytes.Repeat([]byte("user-000123/qual/value "), 500)
	comp, err := compressBlock(codecFlate, raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(raw) {
		t.Fatalf("flate did not shrink a repetitive payload (%d -> %d)", len(raw), len(comp))
	}
	got, err := decompressBlock(codecFlate, comp, len(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("flate roundtrip mismatch")
	}
	// Declared length mismatches must error, not truncate or overrun.
	if _, err := decompressBlock(codecFlate, comp, len(raw)-1); err == nil {
		t.Fatal("short rawLen accepted")
	}
	if _, err := decompressBlock(codecFlate, comp, len(raw)+1); err == nil {
		t.Fatal("long rawLen accepted")
	}
}

func TestParseBlockCompression(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want BlockCompression
		ok   bool
	}{
		{"", BlockNone, true},
		{"none", BlockNone, true},
		{"flate", BlockFlate, true},
		{"snappy", BlockSnappy, true},
		{"zstd", BlockNone, false},
	} {
		got, err := ParseBlockCompression(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseBlockCompression(%q) = (%v, %v), want (%v, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestDecodeBlockPayloadRejectsCorruption(t *testing.T) {
	var b blockBuilder
	for i := 0; i < 40; i++ {
		c := Cell{Row: fmt.Sprintf("row-%04d", i), Qualifier: "q", Timestamp: int64(i), Value: []byte("some value here")}
		b.add(&c)
	}
	h, err := b.finish(codecNone)
	if err != nil {
		t.Fatal(err)
	}
	valid := h.data
	if _, err := decodeBlockPayload(valid, h.count); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	// Truncations at every boundary must error, never panic.
	for n := 0; n < len(valid); n += 7 {
		if _, err := decodeBlockPayload(valid[:n], -1); err == nil && n < len(valid) {
			// Some truncations still parse as a shorter valid block; what
			// matters is no panic and the count check catching them.
			if _, err := decodeBlockPayload(valid[:n], h.count); err == nil {
				t.Fatalf("truncation to %d bytes decoded to the full cell count", n)
			}
		}
	}
	// Single-byte corruptions must error or decode to different cells,
	// never panic.
	for i := 0; i < len(valid); i += 11 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		decodeBlockPayload(mut, -1)
	}
}
