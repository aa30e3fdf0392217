package model

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleVisit() Visit {
	return Visit{
		UserID:  4211,
		Time:    1356912000123,
		Grade:   4.5,
		Network: "foursquare",
		POI: POI{
			ID:       991,
			Name:     "Acropolis Museum",
			Lat:      37.9684,
			Lon:      23.7285,
			Keywords: []string{"museum", "history", "athens"},
			Hotness:  0.83,
			Interest: 4.1,
		},
	}
}

func TestVisitBinaryRoundTripReplicated(t *testing.T) {
	v := sampleVisit()
	b := EncodeVisitBinary(&v)
	if !IsVisitBinary(b) {
		t.Fatal("encoded payload not recognized as binary")
	}
	got, err := DecodeVisitBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, v)
	}
	// Edge values: negatives, NaN-free extremes, empty strings and keywords.
	edge := Visit{UserID: 1, Time: -5, Grade: math.MaxFloat64, POI: POI{ID: -7, Lat: -90, Lon: 180}}
	got, err = DecodeVisitBinary(EncodeVisitBinary(&edge))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, edge) {
		t.Errorf("edge round trip mismatch:\ngot  %+v\nwant %+v", got, edge)
	}
}

func TestVisitBinaryRoundTripNormalized(t *testing.T) {
	v := sampleVisit()
	b := EncodeVisitBinaryNormalized(&v)
	if !IsVisitBinary(b) {
		t.Fatal("encoded payload not recognized as binary")
	}
	got, err := DecodeVisitBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	want := Visit{UserID: v.UserID, Time: v.Time, Grade: v.Grade, Network: v.Network, POI: POI{ID: v.POI.ID}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalized round trip:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestVisitBinaryRejectsCorruptPayloads(t *testing.T) {
	v := sampleVisit()
	full := EncodeVisitBinary(&v)
	// Every strict prefix must fail cleanly, never panic or half-decode.
	for i := 0; i < len(full); i++ {
		if _, err := DecodeVisitBinary(full[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", i, len(full))
		}
	}
	// Trailing garbage is rejected too.
	if _, err := DecodeVisitBinary(append(append([]byte(nil), full...), 0xFF)); err == nil {
		t.Error("trailing bytes decoded without error")
	}
	// Unknown version byte.
	bad := append([]byte(nil), full...)
	bad[1] = 99
	if _, err := DecodeVisitBinary(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("unknown version: err = %v, want version error", err)
	}
	// Unknown tag byte.
	bad = append([]byte(nil), full...)
	bad[0] = 0x7F
	if _, err := DecodeVisitBinary(bad); err == nil {
		t.Error("unknown tag decoded without error")
	}
	// Absurd keyword count must not allocate or misread.
	kw := []byte{VisitBinaryTagReplicated, visitBinaryVersion}
	if _, err := DecodeVisitBinary(kw); err == nil {
		t.Error("header-only payload decoded without error")
	}
}

func TestIsVisitBinaryNeverMatchesJSON(t *testing.T) {
	v := sampleVisit()
	j := EncodeJSON(v)
	if IsVisitBinary(j) {
		t.Error("JSON payload misidentified as binary")
	}
	if IsVisitBinary(nil) || IsVisitBinary([]byte{}) {
		t.Error("empty payload misidentified as binary")
	}
}

// sameFields compares two projections bit for bit, so NaN coordinates a
// fuzzed payload can carry compare equal to themselves.
func sameFields(a, b VisitFields) bool {
	return a.POIID == b.POIID && a.HasKeyword == b.HasKeyword &&
		math.Float64bits(a.Grade) == math.Float64bits(b.Grade) &&
		math.Float64bits(a.Lat) == math.Float64bits(b.Lat) &&
		math.Float64bits(a.Lon) == math.Float64bits(b.Lon)
}

// FuzzSkimVisitBinary checks the allocation-free skim against the full
// decoder: both accept or both reject every payload, and on acceptance the
// skim's fields equal the decoded visit's projection for the same keyword.
func FuzzSkimVisitBinary(f *testing.F) {
	v := sampleVisit()
	full := EncodeVisitBinary(&v)
	f.Add(full, "history")
	f.Add(full, "beach")
	f.Add(full, "")
	f.Add(full[:len(full)-3], "museum")
	f.Add(EncodeVisitBinaryNormalized(&v), "museum")
	empty := Visit{POI: POI{Keywords: []string{""}}}
	f.Add(EncodeVisitBinary(&empty), "")
	f.Add([]byte{VisitBinaryTagReplicated, visitBinaryVersion}, "x")
	f.Add([]byte("{}"), "")
	f.Fuzz(func(t *testing.T, b []byte, keyword string) {
		got, skimErr := SkimVisitBinary(b, keyword)
		dec, decErr := DecodeVisitBinary(b)
		if (skimErr == nil) != (decErr == nil) {
			t.Fatalf("skim err %v, decode err %v", skimErr, decErr)
		}
		if decErr != nil {
			return
		}
		if want := dec.Fields(keyword); !sameFields(got, want) {
			t.Fatalf("skim %+v, decode %+v", got, want)
		}
	})
}

// TestSkimVisitBinaryTruncationAndAllocs checks that the skim rejects every
// strict prefix of both layouts, as DecodeVisitBinary does, and that it
// allocates nothing.
func TestSkimVisitBinaryTruncationAndAllocs(t *testing.T) {
	v := sampleVisit()
	for _, b := range [][]byte{EncodeVisitBinary(&v), EncodeVisitBinaryNormalized(&v)} {
		for i := 0; i < len(b); i++ {
			if _, err := SkimVisitBinary(b[:i], "museum"); err == nil {
				t.Fatalf("tag 0x%02x: truncation to %d/%d bytes skimmed without error", b[0], i, len(b))
			}
		}
	}
	b := EncodeVisitBinary(&v)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = SkimVisitBinary(b, "athens") }); allocs != 0 {
		t.Errorf("skim allocated %.0f times per call, want 0", allocs)
	}
}
