// Package fpm implements frequent-itemset mining over keyword transactions.
// The paper's Dec algorithm (Section 6.2) mines the keyword sets of the query
// vertex's neighbours with minimum support k to enumerate every candidate
// keyword set directly, instead of growing candidates level by level. The
// paper uses FP-Growth (reference [14]); Apriori (reference [13]) is provided
// as an independent implementation for cross-checking and ablation.
package fpm

import (
	"cmp"
	"slices"
	"sync"
)

// Item is an item identifier (the ACQ layer uses keyword IDs).
type Item = int32

// Itemset is a frequent itemset with its support count. Items are sorted
// ascending.
type Itemset struct {
	Items   []Item
	Support int
}

// sortItemsets orders itemsets canonically (by size, then lexicographically)
// so results from different miners compare equal.
func sortItemsets(sets []Itemset) {
	slices.SortFunc(sets, func(a, b Itemset) int {
		if c := cmp.Compare(len(a.Items), len(b.Items)); c != 0 {
			return c
		}
		return slices.Compare(a.Items, b.Items)
	})
}

// FPGrowth mines all itemsets with support ≥ minSupport from txns. Each
// transaction must contain no duplicate items. minSupport < 1 is treated
// as 1. The result is in canonical order (by size, then lexicographically);
// its Items share one backing array.
func FPGrowth(txns [][]Item, minSupport int) []Itemset {
	if minSupport < 1 {
		minSupport = 1
	}
	m := miners.Get().(*fpMiner)
	defer miners.Put(m)
	return m.run(txns, int32(minSupport))
}

// miners recycles FP-Growth's working memory: the trees of one run live in
// an arena that is reset, not freed, so a run allocates only its result.
var miners = sync.Pool{New: func() any { return new(fpMiner) }}

const none = -1 // the nil node index

// fpNode is an FP-tree node in the miner's arena. Items are identified by
// their rank in the global order (descending frequency), and links are
// arena indices, so the arena can grow without invalidating them.
type fpNode struct {
	rank, count            int32
	parent, child, sibling int32
	next                   int32 // header-table chain of rank
}

// fpTree is one (conditional) FP-tree: its root node and a header table of
// n ranks at tabs[tab:], with the ranks' total supports at tabs[tab+n:].
type fpTree struct{ root, tab, n int32 }

// rankedItem is a frequent item with its support and global rank.
type rankedItem struct{ item, support, rank int32 }

type fpMiner struct {
	byItem  []rankedItem // frequent items sorted by item: item → rank
	items   []Item       // rank → item
	nodes   []fpNode
	tabs    []int32
	scratch []int32 // all items of the input, then one path at a time
	suffix  []Item
	found   []emitted
	flat    []Item // the Items of every emitted itemset, back to back
}

type emitted struct{ off, n, support int32 }

func (m *fpMiner) run(txns [][]Item, minSupport int32) []Itemset {
	// Item supports: sort every occurrence, then count the runs.
	all := m.scratch[:0]
	for _, t := range txns {
		all = append(all, t...)
	}
	slices.Sort(all)
	m.byItem = m.byItem[:0]
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j] == all[i] {
			j++
		}
		if int32(j-i) >= minSupport {
			m.byItem = append(m.byItem, rankedItem{item: all[i], support: int32(j - i)})
		}
		i = j
	}
	m.scratch = all
	// Global item order: descending support, ascending item ID for ties.
	m.items = m.items[:0]
	for _, e := range m.byItem {
		m.items = append(m.items, e.item)
	}
	slices.SortFunc(m.items, func(a, b Item) int {
		if c := cmp.Compare(m.lookup(b).support, m.lookup(a).support); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for r, it := range m.items {
		m.lookup(it).rank = int32(r)
	}

	m.nodes, m.tabs = m.nodes[:0], m.tabs[:0]
	m.suffix, m.found, m.flat = m.suffix[:0], m.found[:0], m.flat[:0]
	tree := m.newTree(int32(len(m.items)))
	for _, t := range txns {
		path := m.scratch[:0]
		for _, it := range t {
			if e := m.lookup(it); e != nil {
				path = append(path, e.rank)
			}
		}
		slices.Sort(path)
		m.scratch = path
		m.insert(tree, path, 1)
	}
	m.mine(tree, minSupport)

	if len(m.found) == 0 {
		return nil
	}
	items := slices.Clone(m.flat)
	out := make([]Itemset, len(m.found))
	for i, f := range m.found {
		out[i] = Itemset{Items: items[f.off : f.off+f.n : f.off+f.n], Support: int(f.support)}
	}
	sortItemsets(out)
	return out
}

// lookup returns the frequent-item entry of it, or nil if it is infrequent.
func (m *fpMiner) lookup(it Item) *rankedItem {
	i, ok := slices.BinarySearchFunc(m.byItem, it, func(e rankedItem, it Item) int { return cmp.Compare(e.item, it) })
	if !ok {
		return nil
	}
	return &m.byItem[i]
}

// newTree appends an empty tree over ranks [0, n) to the arena.
func (m *fpMiner) newTree(n int32) fpTree {
	t := fpTree{root: int32(len(m.nodes)), tab: int32(len(m.tabs)), n: n}
	m.nodes = append(m.nodes, fpNode{rank: none, parent: none, child: none, sibling: none, next: none})
	for i := int32(0); i < n; i++ {
		m.tabs = append(m.tabs, none)
	}
	for i := int32(0); i < n; i++ {
		m.tabs = append(m.tabs, 0)
	}
	return t
}

// insert adds a rank-ascending path with multiplicity count.
func (m *fpMiner) insert(t fpTree, path []int32, count int32) {
	cur := t.root
	for _, r := range path {
		c := m.nodes[cur].child
		for c != none && m.nodes[c].rank != r {
			c = m.nodes[c].sibling
		}
		if c == none {
			c = int32(len(m.nodes))
			m.nodes = append(m.nodes, fpNode{rank: r, parent: cur, child: none, sibling: m.nodes[cur].child, next: m.tabs[t.tab+r]})
			m.nodes[cur].child = c
			m.tabs[t.tab+r] = c
		}
		m.nodes[c].count += count
		m.tabs[t.tab+t.n+r] += count
		cur = c
	}
}

// mine emits every frequent itemset of t suffixed by m.suffix. Each
// conditional tree is built on top of the arena and popped once mined.
func (m *fpMiner) mine(t fpTree, minSupport int32) {
	for r := t.n - 1; r >= 0; r-- {
		support := m.tabs[t.tab+t.n+r]
		if support < minSupport {
			continue
		}
		m.suffix = append(m.suffix, m.items[r])
		off := int32(len(m.flat))
		m.flat = append(m.flat, m.suffix...)
		slices.Sort(m.flat[off:])
		m.found = append(m.found, emitted{off: off, n: int32(len(m.suffix)), support: support})

		// Conditional tree: the prefix paths of every node carrying r.
		nodes, tabs := len(m.nodes), len(m.tabs)
		cond := m.newTree(r)
		for nd := m.tabs[t.tab+r]; nd != none; nd = m.nodes[nd].next {
			path := m.scratch[:0]
			for p := m.nodes[nd].parent; p != t.root; p = m.nodes[p].parent {
				path = append(path, m.nodes[p].rank)
			}
			slices.Reverse(path) // leaf→root back to rank order
			m.scratch = path
			m.insert(cond, path, m.nodes[nd].count)
		}
		m.mine(cond, minSupport)
		m.nodes, m.tabs = m.nodes[:nodes], m.tabs[:tabs]
		m.suffix = m.suffix[:len(m.suffix)-1]
	}
}

// Apriori mines all itemsets with support ≥ minSupport using level-wise
// candidate generation. It is asymptotically slower than FPGrowth but
// independent, which makes it a good differential-testing oracle.
func Apriori(txns [][]Item, minSupport int) []Itemset {
	if minSupport < 1 {
		minSupport = 1
	}
	// L1.
	freq := map[Item]int{}
	for _, t := range txns {
		for _, it := range t {
			freq[it]++
		}
	}
	var level [][]Item
	for it, c := range freq {
		if c >= minSupport {
			level = append(level, []Item{it})
		}
	}
	sortSets(level)
	var out []Itemset
	for _, s := range level {
		out = append(out, Itemset{Items: s, Support: freq[s[0]]})
	}
	// Sorted transactions for subset counting.
	sorted := make([][]Item, len(txns))
	for i, t := range txns {
		sorted[i] = slices.Sorted(slices.Values(t))
	}
	for len(level) > 0 {
		cands := aprioriGen(level)
		if len(cands) == 0 {
			break
		}
		counts := make([]int, len(cands))
		for _, t := range sorted {
			for i, c := range cands {
				if isSubset(c, t) {
					counts[i]++
				}
			}
		}
		var next [][]Item
		for i, c := range cands {
			if counts[i] >= minSupport {
				next = append(next, c)
				out = append(out, Itemset{Items: c, Support: counts[i]})
			}
		}
		level = next
	}
	sortItemsets(out)
	return out
}

// aprioriGen joins size-c sets differing only in the last item and prunes
// candidates with an infrequent subset (the anti-monotonicity prune).
func aprioriGen(level [][]Item) [][]Item {
	have := map[string]bool{}
	for _, s := range level {
		have[key(s)] = true
	}
	var out [][]Item
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i], level[j]
			k := len(a)
			if !equalPrefix(a, b, k-1) || a[k-1] >= b[k-1] {
				continue
			}
			cand := make([]Item, k+1)
			copy(cand, a)
			cand[k] = b[k-1]
			if allSubsetsFrequent(cand, have) {
				out = append(out, cand)
			}
		}
	}
	return out
}

func allSubsetsFrequent(cand []Item, have map[string]bool) bool {
	sub := make([]Item, 0, len(cand)-1)
	for skip := range cand {
		sub = sub[:0]
		for i, it := range cand {
			if i != skip {
				sub = append(sub, it)
			}
		}
		if !have[key(sub)] {
			return false
		}
	}
	return true
}

func equalPrefix(a, b []Item, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func isSubset(sub, sorted []Item) bool {
	i := 0
	for _, want := range sub {
		for i < len(sorted) && sorted[i] < want {
			i++
		}
		if i == len(sorted) || sorted[i] != want {
			return false
		}
		i++
	}
	return true
}

func key(s []Item) string {
	b := make([]byte, 0, len(s)*4)
	for _, it := range s {
		b = append(b, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(b)
}

func sortSets(sets [][]Item) {
	slices.SortFunc(sets, slices.Compare[[]Item])
}
