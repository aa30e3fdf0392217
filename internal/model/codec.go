package model

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary visit codec. The Visits repository is the platform's hottest read
// path: every personalized query decodes one payload per scanned visit row,
// and the replicated schema embeds a full POI document in each. JSON
// decoding pays reflection and field-name matching per row; this codec is a
// flat, length-prefixed binary layout with a leading tag byte that can
// never collide with a JSON document (JSON payloads start with '{'), so
// stores holding a mix of old JSON rows and new binary rows — e.g. after a
// WAL replay of pre-codec data — decode transparently.
//
// Layout: tag byte, version byte, then fields in declaration order.
// Integers are varints, floats are 8-byte little-endian IEEE 754 bits,
// strings are uvarint length prefixes followed by raw bytes.

const (
	// VisitBinaryTagReplicated marks a full replicated-schema visit payload
	// (embedded POI document).
	VisitBinaryTagReplicated byte = 0x01
	// VisitBinaryTagNormalized marks a compact normalized-schema payload
	// (POI id only; the reader joins the rest).
	VisitBinaryTagNormalized byte = 0x02
	// visitBinaryVersion is the current layout version. Decoders reject
	// versions they do not know instead of misreading them.
	visitBinaryVersion byte = 1
)

// IsVisitBinary reports whether the payload carries a binary visit tag.
// JSON visit payloads always start with '{', so the check is unambiguous.
func IsVisitBinary(b []byte) bool {
	return len(b) > 0 && (b[0] == VisitBinaryTagReplicated || b[0] == VisitBinaryTagNormalized)
}

// EncodeVisitBinary encodes a replicated-schema visit: the full struct
// including the embedded POI document.
func EncodeVisitBinary(v *Visit) []byte {
	n := 2 + 3*binary.MaxVarintLen64 + 8 + len(v.Network) + len(v.POI.Name) + 16 + 16 + 2 + 8
	for _, k := range v.POI.Keywords {
		n += len(k) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, VisitBinaryTagReplicated, visitBinaryVersion)
	b = binary.AppendVarint(b, v.UserID)
	b = binary.AppendVarint(b, v.Time)
	b = appendFloat(b, v.Grade)
	b = appendString(b, v.Network)
	b = binary.AppendVarint(b, v.POI.ID)
	b = appendString(b, v.POI.Name)
	b = appendFloat(b, v.POI.Lat)
	b = appendFloat(b, v.POI.Lon)
	b = binary.AppendUvarint(b, uint64(len(v.POI.Keywords)))
	for _, k := range v.POI.Keywords {
		b = appendString(b, k)
	}
	b = appendFloat(b, v.POI.Hotness)
	b = appendFloat(b, v.POI.Interest)
	return b
}

// EncodeVisitBinaryNormalized encodes the normalized-schema projection of a
// visit: identity, time, grade, network and the POI id.
func EncodeVisitBinaryNormalized(v *Visit) []byte {
	b := make([]byte, 0, 2+3*binary.MaxVarintLen64+8+len(v.Network))
	b = append(b, VisitBinaryTagNormalized, visitBinaryVersion)
	b = binary.AppendVarint(b, v.UserID)
	b = binary.AppendVarint(b, v.Time)
	b = appendFloat(b, v.Grade)
	b = appendString(b, v.Network)
	b = binary.AppendVarint(b, v.POI.ID)
	return b
}

// DecodeVisitBinary decodes either binary visit layout, dispatching on the
// tag byte. Normalized payloads yield a Visit whose POI carries only the
// id, mirroring the JSON normalized schema.
func DecodeVisitBinary(b []byte) (Visit, error) {
	tag, d, err := openVisitBinary(b)
	if err != nil {
		return Visit{}, err
	}
	var v Visit
	v.UserID = d.varint()
	v.Time = d.varint()
	v.Grade = d.float()
	v.Network = d.str()
	v.POI.ID = d.varint()
	if tag == VisitBinaryTagReplicated {
		v.POI.Name = d.str()
		v.POI.Lat = d.float()
		v.POI.Lon = d.float()
		if n := d.keywordCount(); n > 0 {
			v.POI.Keywords = make([]string, n)
			for i := range v.POI.Keywords {
				v.POI.Keywords[i] = d.str()
			}
		}
		v.POI.Hotness = d.float()
		v.POI.Interest = d.float()
	}
	if err := d.close(); err != nil {
		return Visit{}, err
	}
	return v, nil
}

// VisitFields is the part of a visit the personalized coprocessor filters
// and aggregates on: the POI identity, the visit's grade, the POI location
// and whether the query keyword is among the POI's keywords.
type VisitFields struct {
	POIID      int64
	Grade      float64
	Lat, Lon   float64
	HasKeyword bool
}

// Fields projects v onto VisitFields; HasKeyword reports whether keyword
// is one of v.POI.Keywords.
func (v *Visit) Fields(keyword string) VisitFields {
	f := VisitFields{POIID: v.POI.ID, Grade: v.Grade, Lat: v.POI.Lat, Lon: v.POI.Lon}
	for _, k := range v.POI.Keywords {
		if k == keyword {
			f.HasKeyword = true
			break
		}
	}
	return f
}

// SkimVisitBinary reads the VisitFields of a binary visit without
// materializing its strings: it walks the same layout as
// DecodeVisitBinary, compares keywords in place and allocates nothing. It
// accepts and rejects exactly the payloads DecodeVisitBinary does, and on
// success returns what DecodeVisitBinary(b).Fields(keyword) would.
func SkimVisitBinary(b []byte, keyword string) (VisitFields, error) {
	tag, d, err := openVisitBinary(b)
	if err != nil {
		return VisitFields{}, err
	}
	var f VisitFields
	d.varint() // user id
	d.varint() // time
	f.Grade = d.float()
	d.bytes() // network
	f.POIID = d.varint()
	if tag == VisitBinaryTagReplicated {
		d.bytes() // POI name
		f.Lat = d.float()
		f.Lon = d.float()
		for n := d.keywordCount(); n > 0; n-- {
			if string(d.bytes()) == keyword {
				f.HasKeyword = true
			}
		}
		d.float() // hotness
		d.float() // interest
	}
	if err := d.close(); err != nil {
		return VisitFields{}, err
	}
	return f, nil
}

// openVisitBinary checks a binary visit's header and returns its tag and a
// reader over the field stream.
func openVisitBinary(b []byte) (byte, binReader, error) {
	if len(b) < 2 {
		return 0, binReader{}, fmt.Errorf("model: binary visit too short (%d bytes)", len(b))
	}
	tag, version := b[0], b[1]
	if version != visitBinaryVersion {
		return 0, binReader{}, fmt.Errorf("model: binary visit version %d not supported (tag 0x%02x)", version, tag)
	}
	if tag != VisitBinaryTagReplicated && tag != VisitBinaryTagNormalized {
		return 0, binReader{}, fmt.Errorf("model: unknown binary visit tag 0x%02x", tag)
	}
	return tag, binReader{b: b[2:]}, nil
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// binReader consumes the field stream, latching the first error so the
// decode body reads linearly without per-field checks.
type binReader struct {
	b   []byte
	err error
}

func (d *binReader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("model: truncated binary visit at %s", what)
	}
	d.b = nil
}

func (d *binReader) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binReader) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binReader) float() float64 {
	if len(d.b) < 8 {
		d.fail("float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// bytes returns the next length-prefixed string field as a slice of the
// payload (nil on error).
func (d *binReader) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail("string")
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

func (d *binReader) str() string { return string(d.bytes()) }

// keywordCount reads the keyword count, rejecting one larger than the
// remaining bytes (each keyword takes at least its length byte) before
// anything is sized from it.
func (d *binReader) keywordCount() uint64 {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("keyword count")
		return 0
	}
	return n
}

// close reports the first latched error, or trailing bytes after the last
// field.
func (d *binReader) close() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("model: %d trailing bytes in binary visit", len(d.b))
	}
	return nil
}
