package dataio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"

	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/graph"
)

// The mapped snapshot container ("ACQM") lays the v2 flat-CSR snapshot out as
// raw little-endian arrays at 8-byte-aligned offsets, so a cold start can
// memory-map the file and serve straight from the page cache: the n+m payload
// (adjacency, keyword lists, the flattened CL-tree) is never copied onto the
// heap, only the O(n) label table, the O(vocabulary) dictionary and the tree
// skeleton are materialised. It is the one binary format: checkpoints,
// replication bootstraps and saved snapshot files all use it, and the text
// format remains the interchange form.
//
// Layout (all fields little-endian):
//
//	header (64 B):  magic "ACQM" | u32 container version (2, the flat-CSR
//	                snapshot layout) | u64 graph mutation version | u64 n |
//	                u64 m | u64 dictionary words | u64 tree nodes (0 = no
//	                tree) | u64 section count | u64 reserved
//	section table:  sectionCount × { u64 offset | u64 byte length }
//	sections:       each 8-byte aligned, zero-padded between
//
// Sections, in table order: adjOff int32[n+1], adj int32[2m], kwOff
// int32[n+1], kw int32[kwTotal], labelOff u32[n+1], label bytes, wordOff
// u32[words+1], word bytes, treeCore int32[nodes], treeParent int32[nodes],
// treeVertOff int32[nodes+1], treeVerts int32[vertTotal] (tree sections empty
// when no tree is stored).
//
// Mutation safety: the int32 array views alias the mapping, and the mutable
// Graph assembled by Master splices rows in place on RemoveEdge/RemoveKeyword.
// Mapped therefore takes TWO independent MAP_PRIVATE mappings of the file —
// one read-only view backing Frozen/FrozenTree, one writable view backing
// Master. In-place splices dirty private copy-on-write pages of the second
// mapping without disturbing the first mapping or the file itself.

// MappedMagic opens every mapped snapshot container; loaders sniff it to
// tell a snapshot file from a text graph.
const MappedMagic = "ACQM"

const (
	mappedVersion = 2 // the flat-CSR v2 snapshot layout

	mappedHeaderSize = 64
	mappedSections   = 12
	mappedDataStart  = mappedHeaderSize + mappedSections*16
)

// Section indices into the table.
const (
	secAdjOff = iota
	secAdj
	secKwOff
	secKw
	secLabelOff
	secLabelBytes
	secWordOff
	secWordBytes
	secTreeCore
	secTreeParent
	secTreeVertOff
	secTreeVerts
)

// hostLittle reports whether this machine is little-endian; the zero-copy
// casts below are only valid when the host byte order matches the file's.
var hostLittle = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// WriteMapped writes g (and ft, a FlattenTree capture, if non-nil) in the
// mapped container format. graphVersion stamps the snapshot with the mutation
// version it reflects, so recovery knows which WAL records its contents
// already include. Taking the pre-flattened tree lets a checkpoint capture
// both arguments under its writer lock and run WriteMapped off-lock.
func WriteMapped(w io.Writer, g *graph.Frozen, ft *FlatTree, graphVersion uint64) error {
	n := g.NumVertices()
	adjOff, adj, kwOff, kw := g.Flat()

	labels := make([]string, n)
	labelBytes := 0
	for v := 0; v < n; v++ {
		labels[v] = g.Label(graph.VertexID(v))
		labelBytes += len(labels[v])
	}
	words := g.Dict().Words()
	wordBytes := 0
	for _, word := range words {
		wordBytes += len(word)
	}
	if labelBytes > math.MaxUint32 || wordBytes > math.MaxUint32 {
		return fmt.Errorf("dataio: label/word blobs exceed u32 offsets")
	}

	treeNodes := 0
	if ft != nil {
		treeNodes = len(ft.Core)
	}

	// Section byte lengths, in table order.
	lens := [mappedSections]int{
		secAdjOff:     4 * len(adjOff),
		secAdj:        4 * len(adj),
		secKwOff:      4 * len(kwOff),
		secKw:         4 * len(kw),
		secLabelOff:   4 * (n + 1),
		secLabelBytes: labelBytes,
		secWordOff:    4 * (len(words) + 1),
		secWordBytes:  wordBytes,
	}
	if ft != nil {
		lens[secTreeCore] = 4 * treeNodes
		lens[secTreeParent] = 4 * treeNodes
		lens[secTreeVertOff] = 4 * (treeNodes + 1)
		lens[secTreeVerts] = 4 * len(ft.Verts)
	}
	var offs [mappedSections]int64
	pos := int64(mappedDataStart)
	for i, l := range lens {
		offs[i] = pos
		pos += int64(l+7) &^ 7
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := make([]byte, mappedHeaderSize)
	copy(hdr, MappedMagic)
	binary.LittleEndian.PutUint32(hdr[4:], mappedVersion)
	binary.LittleEndian.PutUint64(hdr[8:], graphVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(g.NumEdges()))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(words)))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(treeNodes))
	binary.LittleEndian.PutUint64(hdr[48:], mappedSections)
	bw.Write(hdr)
	var tbl [16]byte
	for i := range lens {
		binary.LittleEndian.PutUint64(tbl[:8], uint64(offs[i]))
		binary.LittleEndian.PutUint64(tbl[8:], uint64(lens[i]))
		bw.Write(tbl[:])
	}

	pad := func(l int) {
		var zero [8]byte
		if rem := l & 7; rem != 0 {
			bw.Write(zero[:8-rem])
		}
	}
	writeInt32s := func(xs []int32) {
		if hostLittle && len(xs) > 0 {
			bw.Write(unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 4*len(xs)))
			return
		}
		var b [4]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint32(b[:], uint32(x))
			bw.Write(b[:])
		}
	}
	writeStrings := func(ss []string) {
		// offsets first, then the blob
		var b [4]byte
		off := uint32(0)
		binary.LittleEndian.PutUint32(b[:], 0)
		bw.Write(b[:])
		for _, s := range ss {
			off += uint32(len(s))
			binary.LittleEndian.PutUint32(b[:], off)
			bw.Write(b[:])
		}
		pad(4 * (len(ss) + 1))
		for _, s := range ss {
			bw.WriteString(s)
		}
		pad(int(off))
	}

	writeInt32s(adjOff)
	pad(lens[secAdjOff])
	writeInt32s(vertexIDsAsInt32(adj))
	pad(lens[secAdj])
	writeInt32s(kwOff)
	pad(lens[secKwOff])
	writeInt32s(keywordIDsAsInt32(kw))
	pad(lens[secKw])
	writeStrings(labels)
	writeStrings(words)
	if ft != nil {
		writeInt32s(ft.Core)
		pad(lens[secTreeCore])
		writeInt32s(ft.Parent)
		pad(lens[secTreeParent])
		writeInt32s(ft.VertOff)
		pad(lens[secTreeVertOff])
		writeInt32s(vertexIDsAsInt32(ft.Verts))
		pad(lens[secTreeVerts])
	}
	return bw.Flush()
}

// vertexIDsAsInt32 reinterprets without copying (VertexID is int32).
func vertexIDsAsInt32(xs []graph.VertexID) []int32 {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&xs[0])), len(xs))
}

func keywordIDsAsInt32(xs []graph.KeywordID) []int32 {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&xs[0])), len(xs))
}

// Mapped is an open mapped snapshot: two private views of one file, a
// read-only one backing the zero-copy Frozen and a writable copy-on-write one
// backing the mutable master. Everything returned by its methods aliases the
// mappings — the Mapped must outlive all of it, and Close may only be called
// once nothing derived from it can be read again (in a serving process the
// mapping simply lives until exit; the pages are file-backed and evictable,
// so keeping it costs address space, not memory).
type Mapped struct {
	path         string
	ro, rw       []byte
	unmapRO      func() error
	unmapRW      func() error
	zeroCopy     bool
	graphVersion uint64
	n, m         int
	words        int
	treeNodes    int
	secOff       [mappedSections]int64
	secLen       [mappedSections]int64
}

// ErrNotMapped reports a file that is not a mapped snapshot container.
var ErrNotMapped = errors.New("dataio: not a mapped snapshot")

// OpenMapped opens a mapped snapshot container. On unix little-endian hosts
// the file is memory-mapped (two private mappings); elsewhere it is read onto
// the heap with the same API and semantics, just without the zero-copy
// property.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	m := &Mapped{path: path, zeroCopy: mmapSupported && hostLittle}
	if m.zeroCopy {
		m.ro, m.unmapRO, err = mapFile(f, size, false)
		if err == nil {
			m.rw, m.unmapRW, err = mapFile(f, size, true)
			if err != nil {
				m.unmapRO()
			}
		}
		if err != nil {
			// Some filesystems refuse mmap; degrade to the heap path.
			m.zeroCopy = false
		}
	}
	if !m.zeroCopy {
		m.ro, err = readAligned(f, size)
		if err != nil {
			return nil, err
		}
		m.rw = append(alignedBuf(int(size)), m.ro...)
	}
	if err := m.parseHeader(); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// PeekMappedVersion reads the graph mutation version out of a mapped
// container header without mapping or validating the payload. The replication
// leader stamps the snapshot blob it serves with this version, so a follower
// knows where the WAL tail it must replay begins; reading 16 bytes beats
// re-opening the whole container on every poll.
func PeekMappedVersion(r io.ReaderAt) (uint64, error) {
	var hdr [16]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("%w: reading header: %v", ErrNotMapped, err)
	}
	if string(hdr[:4]) != MappedMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrNotMapped, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != mappedVersion {
		return 0, fmt.Errorf("dataio: unsupported mapped snapshot version %d (want %d)", v, mappedVersion)
	}
	return binary.LittleEndian.Uint64(hdr[8:]), nil
}

// ReadMapped reads a mapped snapshot container from r onto the heap and
// assembles its mutable master graph plus CL-tree (nil when none is stored),
// exactly as Master does for an opened file. Both are fully validated, so a
// corrupt or truncated input fails here. The graph version stamp is not
// returned.
func ReadMapped(r io.Reader) (*graph.Graph, *core.Tree, error) {
	buf, err := readAligned(r, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("dataio: reading mapped snapshot: %w", err)
	}
	// Nothing else aliases the buffer, so the master owns it outright and the
	// read-only and writable views can be the same bytes.
	m := &Mapped{path: "input", ro: buf, rw: buf}
	if err := m.parseHeader(); err != nil {
		return nil, nil, err
	}
	return m.Master()
}

// readAligned reads r to EOF into an 8-byte-aligned heap buffer. size
// presizes it: the file size, or 0 for a stream of unknown length.
func readAligned(r io.Reader, size int64) ([]byte, error) {
	buf := alignedBuf(int(size) + 512)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(alignedBuf(2*cap(buf)), buf...)
		}
	}
}

// alignedBuf returns an empty byte slice with 8-aligned backing storage of
// capacity ≥ n (a []uint64 allocation guarantees the alignment the int32
// casts rely on).
func alignedBuf(n int) []byte {
	w := make([]uint64, (n+7)/8)
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), 8*len(w))[:0]
}

func (m *Mapped) parseHeader() error {
	h := m.ro
	if magic := h[:min(len(h), len(MappedMagic))]; string(magic) != MappedMagic {
		return fmt.Errorf("%w: %s: bad magic %q", ErrNotMapped, m.path, magic)
	}
	if len(h) < mappedDataStart {
		return fmt.Errorf("%w: %s: %d bytes is shorter than the header", ErrNotMapped, m.path, len(h))
	}
	if v := binary.LittleEndian.Uint32(h[4:]); v != mappedVersion {
		return fmt.Errorf("dataio: %s: unsupported mapped snapshot version %d (want %d)", m.path, v, mappedVersion)
	}
	m.graphVersion = binary.LittleEndian.Uint64(h[8:])
	m.n = int(binary.LittleEndian.Uint64(h[16:]))
	m.m = int(binary.LittleEndian.Uint64(h[24:]))
	m.words = int(binary.LittleEndian.Uint64(h[32:]))
	m.treeNodes = int(binary.LittleEndian.Uint64(h[40:]))
	if sc := binary.LittleEndian.Uint64(h[48:]); sc != mappedSections {
		return fmt.Errorf("dataio: %s: mapped snapshot has %d sections (want %d)", m.path, sc, mappedSections)
	}
	total := int64(len(m.ro))
	// Every counted element occupies at least one byte of its section, so a
	// count beyond the file size is corrupt — and bounding the counts keeps
	// the 4·(count+1) length arithmetic below from wrapping around.
	for _, c := range [...]int{m.n, m.m, m.words, m.treeNodes} {
		if c < 0 || int64(c) > total {
			return fmt.Errorf("dataio: %s: mapped snapshot header counts overflow", m.path)
		}
	}
	for i := 0; i < mappedSections; i++ {
		off := int64(binary.LittleEndian.Uint64(h[mappedHeaderSize+16*i:]))
		l := int64(binary.LittleEndian.Uint64(h[mappedHeaderSize+16*i+8:]))
		if off < mappedDataStart || l < 0 || off+l < off || off+l > total || off&7 != 0 {
			return fmt.Errorf("dataio: %s: mapped snapshot section %d out of bounds (%d+%d of %d)", m.path, i, off, l, total)
		}
		m.secOff[i], m.secLen[i] = off, l
	}
	// Cross-check the section lengths against the header counts so the int32
	// casts below can never slice past a section.
	want := map[int]int64{
		secAdjOff:   4 * int64(m.n+1),
		secAdj:      4 * 2 * int64(m.m),
		secKwOff:    4 * int64(m.n+1),
		secLabelOff: 4 * int64(m.n+1),
		secWordOff:  4 * int64(m.words+1),
	}
	if m.treeNodes > 0 {
		want[secTreeCore] = 4 * int64(m.treeNodes)
		want[secTreeParent] = 4 * int64(m.treeNodes)
		want[secTreeVertOff] = 4 * int64(m.treeNodes+1)
	} else {
		want[secTreeCore], want[secTreeParent], want[secTreeVertOff], want[secTreeVerts] = 0, 0, 0, 0
	}
	for i, w := range want {
		if m.secLen[i] != w {
			return fmt.Errorf("dataio: %s: mapped snapshot section %d is %d bytes, want %d", m.path, i, m.secLen[i], w)
		}
	}
	if m.secLen[secKw]&3 != 0 || m.secLen[secTreeVerts]&3 != 0 {
		return fmt.Errorf("dataio: %s: mapped snapshot payload sections not int32-sized", m.path)
	}
	return nil
}

// GraphVersion returns the mutation version the snapshot reflects.
func (m *Mapped) GraphVersion() uint64 { return m.graphVersion }

// HasTree reports whether a flattened CL-tree is stored.
func (m *Mapped) HasTree() bool { return m.treeNodes > 0 }

// ZeroCopy reports whether the file is actually memory-mapped (false on the
// heap fallback path).
func (m *Mapped) ZeroCopy() bool { return m.zeroCopy }

// SizeBytes returns the container file size.
func (m *Mapped) SizeBytes() int { return len(m.ro) }

// section returns the raw bytes of section i from buffer buf.
func (m *Mapped) section(buf []byte, i int) []byte {
	return buf[m.secOff[i] : m.secOff[i]+m.secLen[i]]
}

// int32s views section i of buf as []int32 — zero-copy on little-endian
// hosts, decoded otherwise.
func (m *Mapped) int32s(buf []byte, i int) []int32 {
	b := m.section(buf, i)
	if len(b) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]int32, len(b)/4)
	for j := range out {
		out[j] = int32(binary.LittleEndian.Uint32(b[4*j:]))
	}
	return out
}

func (m *Mapped) vertexIDs(buf []byte, i int) []graph.VertexID {
	xs := m.int32s(buf, i)
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*graph.VertexID)(unsafe.Pointer(&xs[0])), len(xs))
}

func (m *Mapped) keywordIDs(buf []byte, i int) []graph.KeywordID {
	xs := m.int32s(buf, i)
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*graph.KeywordID)(unsafe.Pointer(&xs[0])), len(xs))
}

// strings decodes the (offsets, blob) string table at sections offSec/blobSec.
// The returned strings are heap copies: they stay valid after Close.
func (m *Mapped) strings(offSec, blobSec int) ([]string, error) {
	offs := m.int32s(m.ro, offSec)
	blob := m.section(m.ro, blobSec)
	out := make([]string, len(offs)-1)
	for i := range out {
		lo, hi := offs[i], offs[i+1]
		if lo < 0 || lo > hi || int64(hi) > m.secLen[blobSec] {
			return nil, fmt.Errorf("dataio: %s: mapped snapshot string table corrupt at entry %d", m.path, i)
		}
		out[i] = string(blob[lo:hi])
	}
	return out, nil
}

// Frozen assembles the zero-copy immutable serving graph over the read-only
// view. validate runs the full CSR Validate — skip it only when the same
// file's Master already validated in this process.
func (m *Mapped) Frozen(validate bool) (*graph.Frozen, error) {
	labels, err := m.strings(secLabelOff, secLabelBytes)
	if err != nil {
		return nil, err
	}
	words, err := m.strings(secWordOff, secWordBytes)
	if err != nil {
		return nil, err
	}
	f, err := graph.NewFrozenFromFlat(labels, words,
		m.int32s(m.ro, secKwOff), m.keywordIDs(m.ro, secKw),
		m.int32s(m.ro, secAdjOff), m.vertexIDs(m.ro, secAdj), validate)
	if err != nil {
		return nil, fmt.Errorf("dataio: %s: %w", m.path, err)
	}
	if f.NumEdges() != m.m {
		return nil, fmt.Errorf("dataio: %s: header says %d edges, adjacency has %d", m.path, m.m, f.NumEdges())
	}
	return f, nil
}

// Master assembles the mutable master graph over the writable copy-on-write
// view, plus its CL-tree if one is stored (nil otherwise). Row splices and
// appends behave exactly as on a heap-built graph: the first mutation of a
// row either reallocates it or dirties a private page — the file is never
// written. The graph is fully validated.
func (m *Mapped) Master() (*graph.Graph, *core.Tree, error) {
	labels, err := m.strings(secLabelOff, secLabelBytes)
	if err != nil {
		return nil, nil, err
	}
	words, err := m.strings(secWordOff, secWordBytes)
	if err != nil {
		return nil, nil, err
	}
	g, err := graph.FromFlat(labels, words,
		m.int32s(m.rw, secKwOff), m.keywordIDs(m.rw, secKw),
		m.int32s(m.rw, secAdjOff), m.vertexIDs(m.rw, secAdj))
	if err != nil {
		return nil, nil, fmt.Errorf("dataio: %s: %w", m.path, err)
	}
	if !m.HasTree() {
		return g, nil, nil
	}
	t, err := m.Tree(g)
	if err != nil {
		return nil, nil, err
	}
	return g, t, nil
}

// Tree rehydrates the stored CL-tree over view v (the zero-copy Frozen for a
// serving tree, the Master graph for the maintainer's tree). Node vertex
// lists alias the buffer v came from; the inverted postings are rebuilt on
// the heap by Rehydrate. Returns an error if no tree is stored.
func (m *Mapped) Tree(v graph.View) (*core.Tree, error) {
	if !m.HasTree() {
		return nil, fmt.Errorf("dataio: %s: mapped snapshot stores no CL-tree", m.path)
	}
	buf := m.ro
	//acqvet:allow viewpurity — read-only capability probe: mutable masters get the writable mapping, no mutation here
	if _, mutable := v.(*graph.Graph); mutable {
		buf = m.rw
	}
	ft := &FlatTree{
		Core:    m.int32s(buf, secTreeCore),
		Parent:  m.int32s(buf, secTreeParent),
		VertOff: m.int32s(buf, secTreeVertOff),
		Verts:   m.vertexIDs(buf, secTreeVerts),
	}
	t, err := unflattenTree(v, ft)
	if err != nil {
		return nil, fmt.Errorf("dataio: %s: %w", m.path, err)
	}
	return t, nil
}

// Close releases the mappings. Everything previously returned by Frozen,
// Master or Tree becomes invalid — callers in a serving process should keep
// the Mapped open for the process lifetime instead.
func (m *Mapped) Close() error {
	var err error
	if m.unmapRO != nil {
		err = m.unmapRO()
		m.unmapRO = nil
	}
	if m.unmapRW != nil {
		if e := m.unmapRW(); err == nil {
			err = e
		}
		m.unmapRW = nil
	}
	m.ro, m.rw = nil, nil
	return err
}
