//go:build !race

package kvstore

import (
	"fmt"
	"testing"
)

// TestBlockDecodeAllocations checks that a block decode allocates only its
// cell slice and one key arena, however many cells the block holds. It is
// built without the race detector, which makes sync.Pool drop pooled
// scratch at random and so changes allocation counts.
func TestBlockDecodeAllocations(t *testing.T) {
	var b blockBuilder
	for i := 0; i < 100; i++ {
		c := Cell{Row: fmt.Sprintf("u%012d|t%013d|", i/3, i), Qualifier: "v", Timestamp: 1, Value: []byte("payload")}
		b.add(&c)
	}
	h, err := b.finish(codecNone)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { _, _ = decodeBlockPayload(h.data, h.count) }); allocs > 2 {
		t.Errorf("decoding a %d-cell block allocated %.0f times, want at most 2 (cells and key arena)", h.count, allocs)
	}
}
