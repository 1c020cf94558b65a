package acq

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/acq-search/acq/internal/dataio"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/lru"
)

// DefaultResultCacheSize is the per-snapshot query-result cache capacity used
// when Graph.SetResultCacheSize has not been called.
const DefaultResultCacheSize = 256

// cacheStats accumulates snapshot-cache hits and misses across every
// snapshot a graph publishes (each snapshot has its own cache, but the
// counters are shared so serving metrics survive republication).
type cacheStats struct {
	hits, misses atomic.Uint64
}

// Snapshot is an immutable, point-in-time view of a Graph and its CL-tree.
//
// A snapshot is obtained from Graph.Snapshot with a single atomic pointer
// load and never changes afterwards: all its query methods are lock-free and
// safe for unlimited concurrent callers, even while the originating Graph is
// being mutated. A reader holding a snapshot observes one consistent graph
// version for as long as it keeps the reference; updates become visible only
// by acquiring a newer snapshot.
//
// Successful query results are memoised in a bounded per-snapshot LRU cache
// keyed by the normalised query. An entry holds the Result and, once a
// SearchJSON has asked for it, the Result's JSON encoding. The cache is
// dropped wholesale with the snapshot, which makes stale results
// structurally impossible. The cache is the one serving structure with
// internal (sharded, per-probe) locking; disable it with
// Graph.SetResultCacheSize(-1) for a strictly lock-free read path.
//
// The cached Result itself is never handed out. Search returns a deep copy,
// so callers own every Result they receive and may mutate it freely; a
// Search hit costs one probe plus a copy proportional to the result size.
// SearchJSON returns the entry's shared, read-only encoding; its hit costs
// one probe whatever the result size.
type Snapshot struct {
	v       view
	version uint64
	cache   *lru.ShardedCache[*cacheEntry]
	stats   *cacheStats
}

// cacheEntry is one memoised answer: a Result no caller ever sees, and its
// JSON encoding, computed at most once by the first SearchJSON that needs it.
type cacheEntry struct {
	res  Result
	once sync.Once
	enc  []byte
	err  error
}

// encoded returns the entry's JSON encoding, computing it on first use.
func (e *cacheEntry) encoded() ([]byte, error) {
	e.once.Do(func() { e.enc, e.err = json.Marshal(e.res) })
	return e.enc, e.err
}

// newSnapshot assembles a snapshot around an already-cloned view. cacheSize
// follows the SetResultCacheSize convention: 0 means the default capacity,
// negative disables result caching.
func newSnapshot(v view, version uint64, cacheSize int, stats *cacheStats) *Snapshot {
	s := &Snapshot{v: v, version: version, stats: stats}
	if cacheSize == 0 {
		cacheSize = DefaultResultCacheSize
	}
	if cacheSize > 0 {
		s.cache = lru.NewSharded[*cacheEntry](cacheSize)
	}
	return s
}

// Version identifies the graph version this snapshot was published at: the
// value of Graph.Version at publication time.
func (s *Snapshot) Version() uint64 { return s.version }

// PeekSnapshot returns the most recently published snapshot without marking
// it consumed — unlike Snapshot, a peek never triggers an eager
// copy-on-write republication on the next mutation, so status probes and
// metrics scrapers can read snapshot-consistent state at any frequency
// without defeating write-burst coalescing. The returned snapshot may lag
// the master by coalesced mutations (compare Version against
// Graph.Version), and is nil before the first publication.
func (G *Graph) PeekSnapshot() *Snapshot { return G.snap.Load() }

// Search evaluates one query against the snapshot; see Graph.Search for the
// Query.Mode dispatch and the cancellation contract. Successful results are
// memoised in the snapshot's LRU cache; an already-canceled ctx returns
// ErrCanceled without touching the cache, and canceled evaluations are never
// cached. The returned Result is the caller's own copy.
func (s *Snapshot) Search(ctx context.Context, q Query) (Result, error) {
	e, err := s.cached(ctx, q)
	if err != nil {
		return Result{}, err
	}
	if s.cache == nil {
		return e.res, nil // stored nowhere, so the caller may have it
	}
	return e.res.clone(), nil
}

// SearchJSON is Search with the answer in its wire form: the JSON encoding
// of the Result, as json.Marshal produces it. It takes the same route as
// Search and shares its cache, and the encoding is memoised in the cache
// entry, so a repeated query returns the bytes of the first one without
// copying or re-encoding anything.
//
// The returned bytes are shared with every other caller of the same query
// and must not be modified. The returned Result carries every field of the
// answer except Communities, which is nil; decode the bytes for those.
func (s *Snapshot) SearchJSON(ctx context.Context, q Query) ([]byte, Result, error) {
	e, err := s.cached(ctx, q)
	if err != nil {
		return nil, Result{}, err
	}
	enc, err := e.encoded()
	if err != nil {
		return nil, Result{}, err
	}
	res := e.res
	res.Communities = nil
	return enc, res, nil
}

// Stats computes summary statistics of the snapshot.
func (s *Snapshot) Stats() Stats { return s.v.stats() }

// HasIndex reports whether the snapshot carries a CL-tree.
func (s *Snapshot) HasIndex() bool { return s.v.tree != nil }

// NumVertices returns |V|.
func (s *Snapshot) NumVertices() int { return s.v.g.NumVertices() }

// NumEdges returns |E|.
func (s *Snapshot) NumEdges() int { return s.v.g.NumEdges() }

// VertexID resolves a label.
func (s *Snapshot) VertexID(label string) (int32, bool) {
	v, ok := s.v.g.VertexByLabel(label)
	return int32(v), ok
}

// Label returns the label of a vertex ID ("" if unlabelled).
func (s *Snapshot) Label(v int32) string { return s.v.g.Label(graph.VertexID(v)) }

// Keywords returns the keyword strings of a vertex.
func (s *Snapshot) Keywords(v int32) []string {
	return s.v.g.KeywordStrings(graph.VertexID(v))
}

// CoreNumber returns the core number of a vertex (requires an index).
func (s *Snapshot) CoreNumber(v int32) (int, error) { return s.v.coreNumber(v) }

// Save writes the snapshot's graph in the text interchange format — unlike
// Graph.Save, this is safe while the originating graph is being mutated.
func (s *Snapshot) Save(w io.Writer) error { return dataio.WriteText(w, s.v.g) }

// SaveSnapshot writes the snapshot's graph and index as a snapshot file
// (.acqm), again safe under concurrent mutation of the originating graph.
func (s *Snapshot) SaveSnapshot(w io.Writer) error { return s.v.saveSnapshot(w) }

// cached is the one route under Search and SearchJSON: check ctx, validate
// the dispatch, then return q's cache entry, evaluating q and storing a new
// entry on a miss. With the cache disabled the entry is fresh and stored
// nowhere. Errors (including cancellations) are never cached: they are cheap
// to recompute and callers expect errors.Is to keep working on fresh wrap
// chains.
//
// An entry's Result stays inside the cache: Search hands out clones and
// SearchJSON hands out the encoding, so sorting or truncating a returned
// Result never corrupts the cache, and identical queries racing in one batch
// never share slices.
func (s *Snapshot) cached(ctx context.Context, q Query) (*cacheEntry, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil && ctx.Err() != nil {
		return nil, canceledErr(ctx)
	}
	// Reject unknown modes/algorithms before the cache probe: an invalid
	// query must never alias the cache key of a valid one (a typo'd mode
	// would otherwise return a cached ModeCore result with a nil error).
	if err := validateDispatch(q); err != nil {
		return nil, err
	}
	if s.cache == nil {
		res, err := s.v.evaluate(ctx, q)
		if err != nil {
			return nil, err
		}
		return &cacheEntry{res: res}, nil
	}
	key := cacheKey(q)
	if e, ok := s.cache.Get(key); ok {
		s.stats.hits.Add(1)
		return e, nil
	}
	s.stats.misses.Add(1)
	res, err := s.v.evaluate(ctx, q)
	if err != nil {
		return nil, err
	}
	e := &cacheEntry{res: res}
	s.cache.Put(key, e)
	return e, nil
}

// clone deep-copies a Result so cache-resident values are never aliased by
// callers.
func (r Result) clone() Result {
	out := Result{
		LabelSize:       r.LabelSize,
		Fallback:        r.Fallback,
		ScoreLowerBound: r.ScoreLowerBound,
		ScoreUpperBound: r.ScoreUpperBound,
		Exact:           r.Exact,
		Work:            r.Work,
		BudgetExhausted: r.BudgetExhausted,
	}
	if r.Communities != nil {
		out.Communities = make([]Community, len(r.Communities))
		for i, c := range r.Communities {
			out.Communities[i] = Community{
				Label:     append([]string(nil), c.Label...),
				Members:   append([]string(nil), c.Members...),
				MemberIDs: append([]int32(nil), c.MemberIDs...),
			}
		}
	}
	return out
}

// modeKind maps a mode to the one-byte cache-key prefix. The bytes predate
// the unified Search surface (they were the per-method kinds), which keeps
// key layouts stable across the API migration.
func modeKind(m Mode) byte {
	switch m {
	case ModeFixed:
		return 'f'
	case ModeThreshold:
		return 't'
	case ModeClique:
		return 'c'
	case ModeSimilar:
		return 'j'
	case ModeTruss:
		return 'r'
	default: // "" and ModeCore share a key: they are the same query
		return 's'
	}
}

// cacheKey normalises a query into a deterministic string: equivalent
// queries (same vertex, mode, k, algorithm, flags, parameters and keyword
// multiset, in any order) map to the same key. Labels and keywords are
// quoted so arbitrary user strings cannot collide across field boundaries.
func cacheKey(q Query) string {
	param := 0.0
	switch q.Mode {
	case ModeThreshold:
		param = q.Theta
	case ModeSimilar:
		param = q.Tau
	}
	var b strings.Builder
	b.WriteByte(modeKind(q.Mode))
	b.WriteByte('|')
	if q.Vertex != "" {
		b.WriteString(strconv.Quote(q.Vertex))
	} else {
		b.WriteByte('#')
		b.WriteString(strconv.Itoa(int(q.VertexID)))
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(q.K))
	b.WriteByte('|')
	algo := q.Algorithm
	if algo == "" {
		algo = AlgoDec
	}
	b.WriteString(string(algo))
	b.WriteByte('|')
	if q.DisableInvertedLists {
		b.WriteByte('I')
	}
	if q.FuzzDistance > 0 {
		b.WriteByte('z')
		b.WriteString(strconv.Itoa(q.FuzzDistance))
	}
	if q.MaxHops > 0 {
		b.WriteByte('h')
		b.WriteString(strconv.Itoa(q.MaxHops))
	}
	// The approximation knobs change the result contract, so they must be
	// part of the key — an approximate result may never alias an exact one.
	if q.Epsilon > 0 {
		b.WriteByte('e')
		b.WriteString(strconv.FormatFloat(q.Epsilon, 'g', -1, 64))
	}
	if q.Budget > 0 {
		b.WriteByte('b')
		b.WriteString(strconv.FormatInt(q.Budget, 10))
	}
	if q.TopR > 0 {
		b.WriteByte('r')
		b.WriteString(strconv.Itoa(q.TopR))
	}
	b.WriteByte('|')
	if len(q.Keywords) > 0 {
		kws := append([]string(nil), q.Keywords...)
		sort.Strings(kws)
		for i, w := range kws {
			if i > 0 && kws[i-1] == w {
				continue // deduplicate
			}
			b.WriteString(strconv.Quote(w))
		}
	}
	if param != 0 {
		b.WriteByte('|')
		b.WriteString(strconv.FormatFloat(param, 'g', -1, 64))
	}
	return b.String()
}
