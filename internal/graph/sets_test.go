package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzSortSet: SortSet returns what slices.Sort plus slices.Compact return.
// Sets are drawn with duplicates, from ID ranges whose span falls on both
// sides of its cost rule (few IDs over many words take the comparison sort,
// many IDs over few words the bitmap), with IDs on 64-bit word edges and at
// n − 1. Each run sorts two sets in a row on one SetOps and checks after
// each that the bitmap is all zero again.
func FuzzSortSet(f *testing.F) {
	f.Add(int64(1), uint16(1000), uint8(200), uint16(999)) // dense: bitmap
	f.Add(int64(2), uint16(4999), uint8(6), uint16(4998))  // sparse: comparison sort
	f.Add(int64(3), uint16(127), uint8(255), uint16(3))    // many duplicates
	f.Add(int64(4), uint16(63), uint8(2), uint16(63))      // one word, n − 1 = 63
	f.Add(int64(5), uint16(3000), uint8(40), uint16(400))  // near the rule's edge
	f.Fuzz(func(t *testing.T, seed int64, nB uint16, sizeB uint8, spanB uint16) {
		n := 1 + int(nB)%5000
		b := NewBuilder()
		for range n {
			b.AddVertex("")
		}
		ops := NewSetOps(b.MustBuild())
		rng := rand.New(rand.NewSource(seed))
		span := 1 + int(spanB)%n
		for round := range 2 {
			lo := rng.Intn(n - span + 1)
			vs := make([]VertexID, rng.Intn(int(sizeB)+1))
			for i := range vs {
				switch rng.Intn(8) {
				case 0:
					vs[i] = VertexID(n - 1)
				case 1:
					w := rng.Intn(n/64+1)*64 - rng.Intn(2)
					vs[i] = VertexID(min(max(w, 0), n-1))
				case 2:
					vs[i] = vs[rng.Intn(i+1)]
				default:
					vs[i] = VertexID(lo + rng.Intn(span))
				}
			}
			want := slices.Compact(slices.Sorted(slices.Values(vs)))
			got := ops.SortSet(vs)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d, n = %d: SortSet = %v, want %v", round, n, got, want)
			}
			for i, w := range ops.words {
				if w != 0 {
					t.Fatalf("round %d, n = %d: bitmap word %d = %#x after SortSet, want 0", round, n, i, w)
				}
			}
		}
	})
}
