package bench

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestScaleSpecTimelinePinned: E19's numbers are only comparable
// across changes if its workload is. The compiled scaleSpec timelines
// — events, issuers, keys, hashed field by field — must equal the
// pinned digests at every population the experiment runs.
func TestScaleSpecTimelinePinned(t *testing.T) {
	pinned := map[int]uint64{
		10_000:    0xa8cb6710832d6846,
		100_000:   0xf3ec630fc300442b,
		1_000_000: 0xfc86c6e0d5cdaad2,
	}
	for n, want := range pinned {
		tl := scaleSpec(n).Compile()
		h := fnv.New64a()
		for _, ev := range tl.Events {
			fmt.Fprintf(h, "%d/%d/%d/%v/%g/%g;", ev.Slot, ev.Kind, ev.Proc, ev.Groups, ev.Drop, ev.Dup)
		}
		fmt.Fprint(h, tl.Issuer, tl.Key)
		if got := h.Sum64(); got != want {
			t.Errorf("scaleSpec(%d): timeline digest %#x, pinned %#x", n, got, want)
		}
	}
}
