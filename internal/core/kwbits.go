package core

import (
	"math/bits"

	"github.com/acq-search/acq/internal/cancel"
	"github.com/acq-search/acq/internal/graph"
)

// keywordBits projects one query's keyword set S onto bit positions: bit
// i+1 stands for S[i], and S is sorted, so bit order is keyword order. Bit 0
// stands for every keyword outside S and is never wanted. A vertex's mask is
// then bits(W(v)), a candidate S′ ⊆ S is the mask want, and the walks'
// keyword test S′ ⊆ W(v) is mask(v)&want == want, word by word. The same
// projection drives candidate mining (mine): one tidset per keyword of S
// over q's neighbours, intersected depth-first.
//
// Masks and tidsets are slices of 64-bit words, ⌈(|S|+1)/64⌉ and
// ⌈deg(q)/64⌉ of them; every query takes this one path whatever |S| and
// deg(q). The table is sized by the dictionary, not by the graph, and lives
// in the tree's pooled scratch. Rather than validating entries by an epoch on
// every lookup, reset zeroes the previous query's |S| entries before
// stamping its own, which keeps the per-keyword lookup a single load.
type keywordBits struct {
	// tab maps a keyword ID to its bit: i+1 for S[i], 0 outside S.
	tab  []uint32
	s    []graph.KeywordID // the current S, owned
	hi   []uint64          // one vertex's mask words above the first
	want []uint64          // the candidate under test

	// Miner scratch: the tidset of every keyword of S, then one per DFS
	// depth; the positions with support ≥ k; each level's sets back to back;
	// the DFS path.
	tids   []uint64
	freq   []int
	found  [][]graph.KeywordID
	prefix []graph.KeywordID
}

// reset makes s, sorted and duplicate-free, the current S of g's keywords.
func (b *keywordBits) reset(g graph.View, s []graph.KeywordID) {
	for _, w := range b.s {
		b.tab[w] = 0
	}
	if size := g.Dict().Size(); len(b.tab) < size {
		b.tab = make([]uint32, size)
	}
	for i, w := range s {
		b.tab[w] = uint32(i + 1)
	}
	b.s = append(b.s[:0], s...)
	words := (len(s) + 64) / 64
	b.hi = resize(b.hi, words-1)
	b.want = resize(b.want, words)
}

// setWant makes set ⊆ S the candidate that covers tests.
func (b *keywordBits) setWant(set []graph.KeywordID) {
	clear(b.want)
	for _, w := range set {
		e := b.tab[w]
		b.want[e>>6] |= 1 << (e & 63)
	}
}

// covers reports whether a vertex with keyword set kw contains the current
// candidate: mask(kw)&want == want. The mask's first word is built in a
// register; the words above it exist only when |S| ≥ 64.
func (b *keywordBits) covers(kw []graph.KeywordID) bool {
	tab, hi := b.tab, b.hi
	clear(hi)
	var lo uint64
	for _, w := range kw {
		if e := tab[w]; e < 64 {
			lo |= 1 << e
		} else {
			hi[e>>6-1] |= 1 << (e & 63)
		}
	}
	if lo&b.want[0] != b.want[0] {
		return false
	}
	for j, want := range b.want[1:] {
		if hi[j]&want != want {
			return false
		}
	}
	return true
}

// mine returns the candidate keyword sets of the current S bucketed by size
// (index l-1 holds the size-l sets): every subset of S contained by at least
// k of q's neighbours of core ≥ k. A community at support k holds k of q's
// neighbours, each with core ≥ k, so a neighbour of lower core can support
// no candidate that qualifies and is skipped. Over the neighbours kept, the
// levels equal mineCandidates(g, q, k, S, fpm.FPGrowth, check) element for
// element. Each keyword of S has a tidset marking the neighbours that hold
// it; a depth-first walk in S's order extends a set by every later frequent
// keyword, ANDs the tidsets and keeps the extension while its popcount is
// ≥ k. Depth-first in S's order emits each size's sets in lexicographic
// order, which is FP-Growth's canonical order within a level. Every level
// shares one backing array, and the sets are full-slice-capped into it.
// check is ticked per neighbour scanned, skipped ones included, as
// mineCandidates does.
func (b *keywordBits) mine(g graph.View, core []int32, q graph.VertexID, k int, check *cancel.Checker) [][][]graph.KeywordID {
	n := len(b.s)
	if n == 0 {
		return nil
	}
	neighbors := g.Neighbors(q)
	if len(neighbors) < k {
		return nil
	}
	tw := (len(neighbors) + 63) / 64
	b.tids = resize(b.tids, 2*n*tw)
	clear(b.tids[:n*tw])
	for j, v := range neighbors {
		check.Tick(1)
		if int(core[v]) < k {
			continue
		}
		word, bit := j>>6, uint64(1)<<(j&63)
		for _, w := range g.Keywords(v) {
			if e := b.tab[w]; e > 0 {
				b.tids[int(e-1)*tw+word] |= bit
			}
		}
	}
	b.freq = b.freq[:0]
	for i := range n {
		if popcount(b.tids[i*tw:(i+1)*tw]) >= k {
			b.freq = append(b.freq, i)
		}
	}
	if len(b.found) < n {
		b.found = append(b.found, make([][]graph.KeywordID, n-len(b.found))...)
	}
	for l := range b.found {
		b.found[l] = b.found[l][:0]
	}
	for x, i := range b.freq {
		b.prefix = append(b.prefix[:0], b.s[i])
		b.found[0] = append(b.found[0], b.s[i])
		b.extend(b.tids[i*tw:(i+1)*tw], x+1, k, tw)
	}
	return b.levels()
}

// extend emits every frequent extension of b.prefix, whose tidset is t, by
// the frequent keywords from b.freq[from:] on, and recurses into each.
func (b *keywordBits) extend(t []uint64, from, k, tw int) {
	depth := len(b.prefix)
	slot := len(b.s) + depth - 1
	out := b.tids[slot*tw : (slot+1)*tw]
	for x := from; x < len(b.freq); x++ {
		i := b.freq[x]
		item := b.tids[i*tw : (i+1)*tw]
		c := 0
		for j := range out {
			out[j] = t[j] & item[j]
			c += bits.OnesCount64(out[j])
		}
		if c < k {
			continue
		}
		b.prefix = append(b.prefix[:depth], b.s[i])
		b.found[depth] = append(b.found[depth], b.prefix...)
		b.extend(out, x+1, k, tw)
	}
}

// levels copies the mined sets out of the scratch: one keyword array, one
// set-header array and the level index. Frequent sets are downward closed,
// so the levels run unbroken from size 1.
func (b *keywordBits) levels() [][][]graph.KeywordID {
	h, total, sets := 0, 0, 0
	for l, f := range b.found {
		if len(f) == 0 {
			break
		}
		h = l + 1
		total += len(f)
		sets += len(f) / h
	}
	if h == 0 {
		return nil
	}
	keywords := make([]graph.KeywordID, 0, total)
	flat := make([][]graph.KeywordID, 0, sets)
	out := make([][][]graph.KeywordID, h)
	for l := range out {
		size, from, m := l+1, len(flat), len(keywords)
		keywords = append(keywords, b.found[l]...)
		for ; m < len(keywords); m += size {
			flat = append(flat, keywords[m:m+size:m+size])
		}
		out[l] = flat[from:len(flat):len(flat)]
	}
	return out
}

func popcount(ws []uint64) int {
	c := 0
	for _, w := range ws {
		c += bits.OnesCount64(w)
	}
	return c
}

// resize returns s with length n, reallocating only when it must grow.
func resize(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
