package graph

import "slices"

// Mutable is a View that can be written: the surface the incremental
// maintainers (core.Maintainer, kcore.Maintainer) apply updates through. Two
// implementations exist — *Graph, the builder output, and *Master, the
// serving writer's overlay over a Frozen base. Mutable access is handed out
// by static type; recovering it from a View by type assertion is what the
// viewpurity analyzer rejects.
type Mutable interface {
	View
	// InsertEdge adds {u, v}, reporting whether it was new.
	InsertEdge(u, v VertexID) bool
	// RemoveEdge deletes {u, v}, reporting whether it existed.
	RemoveEdge(u, v VertexID) bool
	// AddKeyword attaches word to v, interning it if necessary, and reports
	// whether W(v) changed.
	AddKeyword(v VertexID, word string) bool
	// RemoveKeyword detaches word from v, reporting whether it was there.
	RemoveKeyword(v VertexID, word string) bool
}

var (
	_ Mutable = (*Graph)(nil)
	_ Mutable = (*Master)(nil)
)

// Master is the writer's working graph: the one mutable Overlay. It reads
// exactly like an Overlay (it embeds one) and adds the four mutators, each of
// which replaces the touched rows with fresh copies — never splicing in
// place, because the Overlays it publishes share its row storage. Publish
// hands out an immutable Overlay of the current state (copying only the two
// n-sized index arrays and the row-header tables), and Rebase moves the
// master onto a compacted base.
//
// The keyword dictionary is copy-on-write: the master shares its base's
// dictionary until the first write interns a new word.
type Master struct {
	Overlay
	adjLen, kwLen int   // payload entries held by the override rows
	pubDict       *Dict // frozen copy of dict handed to publications, once it outgrew the base's
}

// NewMaster returns a master over base with no overrides.
func NewMaster(base *Frozen) *Master {
	n := base.NumVertices()
	return &Master{Overlay: Overlay{
		base:    base,
		adjIdx:  unset(make([]int32, n)),
		kwIdx:   unset(make([]int32, n)),
		dict:    base.dict,
		m:       base.m,
		kwTotal: len(base.kw),
	}}
}

func unset(idx []int32) []int32 {
	for i := range idx {
		idx[i] = -1
	}
	return idx
}

// InsertEdge adds the undirected edge {u, v}, reporting whether it was new
// (false if it already existed or u == v).
func (m *Master) InsertEdge(u, v VertexID) bool {
	if u == v || m.HasEdge(u, v) {
		return false
	}
	setRow(m.adjIdx, &m.adjRows, &m.adjLen, u, with(m.Neighbors(u), v))
	setRow(m.adjIdx, &m.adjRows, &m.adjLen, v, with(m.Neighbors(v), u))
	m.m++
	return true
}

// RemoveEdge deletes the undirected edge {u, v}, reporting whether it existed.
func (m *Master) RemoveEdge(u, v VertexID) bool {
	if u == v || !m.HasEdge(u, v) {
		return false
	}
	setRow(m.adjIdx, &m.adjRows, &m.adjLen, u, without(m.Neighbors(u), v))
	setRow(m.adjIdx, &m.adjRows, &m.adjLen, v, without(m.Neighbors(v), u))
	m.m--
	return true
}

// AddKeyword attaches word to v, interning it if necessary, and reports
// whether W(v) changed.
func (m *Master) AddKeyword(v VertexID, word string) bool {
	id, ok := m.dict.Lookup(word)
	if !ok {
		if m.dict == m.base.dict {
			m.dict = m.dict.Clone()
		}
		id = m.dict.Intern(word)
	} else if m.HasKeyword(v, id) {
		return false
	}
	setRow(m.kwIdx, &m.kwRows, &m.kwLen, v, with(m.Keywords(v), id))
	m.kwTotal++
	return true
}

// RemoveKeyword detaches word from v, reporting whether it was there.
func (m *Master) RemoveKeyword(v VertexID, word string) bool {
	id, ok := m.dict.Lookup(word)
	if !ok || !m.HasKeyword(v, id) {
		return false
	}
	setRow(m.kwIdx, &m.kwRows, &m.kwLen, v, without(m.Keywords(v), id))
	m.kwTotal--
	return true
}

// Publish returns an immutable Overlay of the master's current state. The
// index arrays and the row-header tables are copied; the rows themselves, the
// base and — unless the master interned new words since its base was frozen
// — the dictionary are shared. A grown dictionary is cloned once per size, so
// a burst of publications between interns clones it once.
func (m *Master) Publish() *Overlay {
	dict := m.dict
	if dict != m.base.dict {
		if m.pubDict == nil || m.pubDict.Size() != dict.Size() {
			m.pubDict = dict.Clone()
		}
		dict = m.pubDict
	}
	return NewOverlay(m.base,
		slices.Clone(m.adjIdx), slices.Clone(m.adjRows),
		slices.Clone(m.kwIdx), slices.Clone(m.kwRows),
		dict, m.m, m.kwTotal)
}

// Empty reports whether the master is its base: no row overrides and no
// interned word the base lacks.
func (m *Master) Empty() bool {
	return len(m.adjRows) == 0 && len(m.kwRows) == 0 && m.dict == m.base.dict
}

// DeltaBytes returns the payload the override rows hold, 4 bytes per entry.
func (m *Master) DeltaBytes() int { return 4 * (m.adjLen + m.kwLen) }

// Rebase moves the master onto fz, the Materialize of one of its earlier
// publications (so fz has the same vertices, and a dictionary the master's
// extends). Override rows equal to fz's rows are dropped; the others — rows
// written since that publication — stay, so the master's state is unchanged.
// The cost is one pass over the index arrays plus the override payload.
func (m *Master) Rebase(fz *Frozen) {
	adjRows, kwRows := m.adjRows, m.kwRows
	m.base = fz
	m.adjRows, m.kwRows = nil, nil
	m.adjLen, m.kwLen = 0, 0
	for v := range m.adjIdx {
		id := VertexID(v)
		if i := m.adjIdx[v]; i >= 0 {
			m.adjIdx[v] = -1
			if row := adjRows[i]; !slices.Equal(row, fz.Neighbors(id)) {
				setRow(m.adjIdx, &m.adjRows, &m.adjLen, id, row)
			}
		}
		if i := m.kwIdx[v]; i >= 0 {
			m.kwIdx[v] = -1
			if row := kwRows[i]; !slices.Equal(row, fz.Keywords(id)) {
				setRow(m.kwIdx, &m.kwRows, &m.kwLen, id, row)
			}
		}
	}
	if m.dict.Size() == fz.dict.Size() {
		m.dict, m.pubDict = fz.dict, nil
	}
}

// setRow installs row as v's override in one of the two row tables, reusing
// v's slot when it has one. The previous row is dropped, never modified:
// published overlays may still read it.
func setRow[T any](idx []int32, rows *[][]T, payload *int, v VertexID, row []T) {
	if i := idx[v]; i >= 0 {
		*payload += len(row) - len((*rows)[i])
		(*rows)[i] = row
		return
	}
	idx[v] = int32(len(*rows))
	*rows = append(*rows, row)
	*payload += len(row)
}

// with returns a fresh copy of the sorted row s with x (absent) inserted.
func with[T ~int32](s []T, x T) []T {
	i, _ := slices.BinarySearch(s, x)
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out
}

// without returns a fresh copy of the sorted row s with x (present) removed.
func without[T ~int32](s []T, x T) []T {
	i, _ := slices.BinarySearch(s, x)
	out := make([]T, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}
