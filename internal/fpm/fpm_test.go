package fpm

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// fig6Txns are the neighbour keyword sets of the paper's Figure 6 with
// v,w,x,y,z encoded as 0..4.
func fig6Txns() [][]Item {
	const v, w, x, y, z = 0, 1, 2, 3, 4
	return [][]Item{
		{v, x, y, z}, // A
		{v, x},       // B
		{v, y},       // C
		{x, y, z},    // D
		{w, x, y, z}, // E
		{v, w},       // F
	}
}

func setsOf(sets []Itemset) [][]Item {
	out := make([][]Item, len(sets))
	for i, s := range sets {
		out[i] = s.Items
	}
	return out
}

// TestFPGrowthFig6 reproduces Example 6: with minimum support k=3 the
// candidates must be Ψ1={v},{x},{y},{z}, Ψ2={x,y},{x,z},{y,z}, Ψ3={x,y,z}
// (keyword w has support 2 and is excluded).
func TestFPGrowthFig6(t *testing.T) {
	const v, x, y, z = 0, 2, 3, 4
	got := FPGrowth(fig6Txns(), 3)
	want := [][]Item{
		{v}, {x}, {y}, {z},
		{x, y}, {x, z}, {y, z},
		{x, y, z},
	}
	if !reflect.DeepEqual(setsOf(got), want) {
		t.Fatalf("FPGrowth = %v, want %v", setsOf(got), want)
	}
	// Spot-check supports.
	for _, s := range got {
		if len(s.Items) == 3 && s.Support != 3 {
			t.Fatalf("support of {x,y,z} = %d, want 3", s.Support)
		}
		if len(s.Items) == 1 && s.Items[0] == v && s.Support != 4 {
			t.Fatalf("support of {v} = %d, want 4", s.Support)
		}
	}
}

func TestAprioriFig6(t *testing.T) {
	got := Apriori(fig6Txns(), 3)
	want := FPGrowth(fig6Txns(), 3)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Apriori = %v\nFPGrowth = %v", got, want)
	}
}

func TestMinersEdgeCases(t *testing.T) {
	if got := FPGrowth(nil, 3); len(got) != 0 {
		t.Fatalf("FPGrowth(nil) = %v", got)
	}
	if got := Apriori(nil, 3); len(got) != 0 {
		t.Fatalf("Apriori(nil) = %v", got)
	}
	// minSupport below 1 is clamped to 1.
	txns := [][]Item{{1}, {2}}
	if got := FPGrowth(txns, 0); len(got) != 2 {
		t.Fatalf("FPGrowth minsup clamp: %v", got)
	}
	// Support above every transaction count yields nothing.
	if got := FPGrowth(txns, 3); len(got) != 0 {
		t.Fatalf("FPGrowth high minsup: %v", got)
	}
	// A single transaction yields all its non-empty subsets at minsup 1.
	got := FPGrowth([][]Item{{5, 7, 9}}, 1)
	if len(got) != 7 {
		t.Fatalf("power-set mining: %d sets, want 7", len(got))
	}
}

// Property: FP-Growth and Apriori produce identical results on random
// transaction databases — two independent implementations cross-check each
// other.
func TestMinersAgreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nTxn := 1 + rng.Intn(20)
		vocab := 1 + rng.Intn(8)
		txns := make([][]Item, nTxn)
		for i := range txns {
			seen := map[Item]bool{}
			for j := 0; j < rng.Intn(6); j++ {
				it := Item(rng.Intn(vocab))
				if !seen[it] {
					seen[it] = true
					txns[i] = append(txns[i], it)
				}
			}
		}
		minSup := 1 + rng.Intn(4)
		return reflect.DeepEqual(FPGrowth(txns, minSup), Apriori(txns, minSup))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: supports are correct — every reported itemset's support equals a
// direct count, and anti-monotonicity holds (no subset has smaller support).
func TestSupportCorrectQuick(t *testing.T) {
	contains := func(txn []Item, set []Item) bool {
		have := map[Item]bool{}
		for _, it := range txn {
			have[it] = true
		}
		for _, it := range set {
			if !have[it] {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		txns := make([][]Item, 1+rng.Intn(15))
		for i := range txns {
			seen := map[Item]bool{}
			for j := 0; j < rng.Intn(5); j++ {
				it := Item(rng.Intn(6))
				if !seen[it] {
					seen[it] = true
					txns[i] = append(txns[i], it)
				}
			}
		}
		minSup := 1 + rng.Intn(3)
		for _, s := range FPGrowth(txns, minSup) {
			cnt := 0
			for _, txn := range txns {
				if contains(txn, s.Items) {
					cnt++
				}
			}
			if cnt != s.Support || cnt < minSup {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
