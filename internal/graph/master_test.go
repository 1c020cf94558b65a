package graph

import "testing"

// TestMasterPublishSharesDict: a publication without dictionary growth
// shares the base's dictionary; interning a new word gives publications a
// clone of their own (one per dictionary size), and neither the base's nor
// an earlier publication's dictionary absorbs the word.
func TestMasterPublishSharesDict(t *testing.T) {
	g := buildTestGraph(t)
	base := g.Freeze(1)
	m := NewMaster(base)
	m.AddKeyword(3, "x") // an existing word: no growth
	p1 := m.Publish()
	if p1.Dict() != base.Dict() {
		t.Fatal("Publish cloned the dictionary although it had not grown")
	}
	m.AddKeyword(0, "grown")
	p2, p3 := m.Publish(), m.Publish()
	if p2.Dict() == base.Dict() {
		t.Fatal("Publish shared a stale dictionary after growth")
	}
	if p3.Dict() != p2.Dict() {
		t.Fatal("two publications at one dictionary size cloned it twice")
	}
	if _, ok := p2.Dict().Lookup("grown"); !ok {
		t.Fatal("the publication's dictionary misses the interned word")
	}
	for name, d := range map[string]*Dict{"base": base.Dict(), "earlier publication": p1.Dict()} {
		if _, ok := d.Lookup("grown"); ok {
			t.Fatalf("the %s's dictionary absorbed the interned word", name)
		}
	}
	g.AddKeyword(3, "x")
	g.AddKeyword(0, "grown")
	requireSameView(t, "after-growth", g, p2)

	// Rebasing onto a materialised publication shares its dictionary again.
	m.Rebase(p3.Materialize(1))
	if !m.Empty() || m.Publish().Dict() != m.Base().Dict() {
		t.Fatal("after a rebase the master still publishes a dictionary of its own")
	}
}
