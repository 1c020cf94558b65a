// Package acq implements attributed community search: given a vertex q of a
// keyword-attributed graph, a degree bound k and a keyword set S, it finds
// the attributed communities (ACs) of q — connected subgraphs containing q
// in which every member has degree ≥ k (structure cohesiveness) and all
// members share a maximal subset of S (keyword cohesiveness).
//
// The library is a from-scratch Go reproduction of Fang, Cheng, Luo and Hu,
// "Effective Community Search for Large Attributed Graphs", PVLDB 9(12),
// 2016. It provides:
//
//   - the CL-tree index (Section 5): the nested k-ĉores of the graph stored
//     as a compressed tree with per-node keyword inverted lists, built either
//     top-down (basic) or bottom-up with an anchored union-find (advanced);
//   - the query algorithms of Section 6: Dec (default and fastest), Inc-S,
//     Inc-T, plus the index-free baselines basic-g and basic-w;
//   - the query variants, folded into one Search surface via Query.Mode:
//     ModeFixed and ModeThreshold (Appendix G), ModeClique, ModeSimilar and
//     ModeTruss (the structure/keyword cohesiveness extensions the paper's
//     conclusion proposes);
//   - incremental index maintenance under edge and keyword updates
//     (Appendix F);
//   - the paper's evaluation harness: community-quality metrics, the Global
//     and Local community-search baselines, a CODICIL-style community
//     detection baseline, star-pattern graph matching, and synthetic dataset
//     generators mirroring the shape of the paper's Flickr, DBLP, Tencent
//     and DBpedia graphs (see internal/bench and EXPERIMENTS.md).
//
// # Quick start
//
//	b := acq.NewBuilder()
//	b.AddVertex("jack", "research", "sports", "tour")
//	b.AddVertex("bob", "research", "sports", "yoga")
//	... // more vertices and edges
//	g, err := b.Build()
//	g.BuildIndex()
//	res, err := g.Search(ctx, acq.Query{Vertex: "jack", K: 3})
//	for _, c := range res.Communities {
//	    fmt.Println(c.Label, c.Members) // shared keywords, member labels
//	}
//
// # One Search surface
//
// Search(ctx, Query) is the single evaluation entrypoint, defined on the
// Searcher interface and implemented by both Graph and Snapshot. Query.Mode
// selects the community model (ModeCore, ModeFixed, ModeThreshold,
// ModeClique, ModeSimilar, ModeTruss, with Theta/Tau/MaxHops as mode
// parameters), and ctx bounds the evaluation: the algorithms poll
// cancellation at amortised checkpoints inside their peeling and traversal
// loops, so a deadline stops a slow query mid-evaluation with an error
// wrapping ErrCanceled and context.Cause. SearchBatch adds bounded fan-out
// and per-query deadlines (BatchOptions.PerQueryTimeout) with input-order
// results.
//
// # Approximate search
//
// Query.Epsilon, Query.Budget and Query.TopR trade exactness for latency:
// ε bounds the relative attribute-score error, the budget hard-caps the
// vertices/edges a query may touch (enforced at the same cancellation
// checkpoints, in every mode), and top-r truncates the candidate sets
// verified per label size. Result reports what was achieved —
// ScoreLowerBound ≤ exact score ≤ ScoreUpperBound always holds, Exact
// marks answers identical to the exact evaluator's, and BudgetExhausted
// with a partial result (nil error) marks a query its budget cut short.
// The zero knobs keep the exact path byte-for-byte.
//
// # Removed variant methods
//
// The pre-v1 per-variant entrypoints — SearchFixed, SearchThreshold,
// SearchClique, SearchSimilar and SearchTruss on both Graph and Snapshot —
// went through one release as deprecated shims and have now been removed.
// Migrate by folding the variant into the Query:
//
//	g.SearchThreshold(q, 0.5)                             // before
//	q.Mode, q.Theta = acq.ModeThreshold, 0.5
//	g.Search(ctx, q)                                      // after
//
// # Removed formats, endpoints and knobs
//
// Three more surfaces are gone:
//
//   - The gob snapshot format. SaveSnapshot writes, and LoadSnapshot reads,
//     the .acqm container that durable collections checkpoint to, so one
//     parser serves saved files, checkpoints and replica bootstraps. A gob
//     .snap file from an older release fails with a bad-magic error; re-save
//     it from its text form with acq index, or load the text and call
//     SaveSnapshot. engine.LoadFile (and acq/acqd -in) pick the format from
//     the ACQM magic, not the file name.
//   - The pre-v1 HTTP endpoints. POST /batch, GET /stats and the routes that
//     answered 410 endpoint_removed (POST /edges, /keywords, /v1/edges,
//     /v1/keywords and their per-collection forms, GET /query) now get the
//     mux's 404 or 405. Send batches to POST /v1/batch ("vertex" for "q",
//     "keywords" for "s"), read stats from GET /v1/collections/default, and
//     send each former single-op write as a one-entry POST /v1/mutations
//     batch ({"op":"insert_edge","u":...,"v":...} and friends).
//   - The build-worker knobs Graph.SetBuildWorkers, BuildOptions.Workers,
//     engine.Config.BuildWorkers and acqd -workers. Index builds and
//     snapshot publication always size their pool automatically — one
//     worker per CPU, serial on small graphs — which is what the zero
//     values already did; every worker count builds the identical tree.
//     Drop the calls and flags.
//
// # Replication tails are WAL frames
//
// Graph.ReplicationTail now returns (frames []byte, reset bool, err error):
// a WAL header and the leader's CRC-framed records after the requested
// version, byte for byte, instead of a ReplicationTailResult. A version
// inside a logged batch answers reset. Graph.ApplyReplicated takes that body
// whole and returns the ops it applied, instead of one ReplicationBatch per
// call; it checks every frame before applying any. The ReplicationBatch and
// ReplicationTailResult types are gone. Pass the tail body straight through:
//
//	res, _ := leader.ReplicationTail(v, 0)                // before
//	for _, b := range res.Batches { follower.ApplyReplicated(b) }
//	frames, reset, _ := leader.ReplicationTail(v, 0)      // after
//	if !reset { follower.ApplyReplicated(frames) }
//
// # Durability
//
// EnableDurability(DurableOptions{Dir: ...}) makes a graph crash-safe:
// every acknowledged mutation batch is appended to a write-ahead log before
// the mutator returns (SyncMode "always" survives machine crashes, "never"
// process kills), and checkpoints — automatic every CheckpointEvery
// effective mutations, or on demand via Checkpoint — fold the log into a
// memory-mappable snapshot. OpenDurable recovers the directory after any
// crash: it mmaps the snapshot, replays whatever the log holds past it, and
// settles the directory back to one-snapshot/one-log. A clean boot (empty
// log) serves entirely off the mapping — zero parse, zero copy — and the
// writer's master is an empty overlay over that same mapped graph, so the
// first write costs no more than any other. DurabilityStats reports WAL
// size, checkpoint progress and recovery telemetry.
//
// # Concurrency and serving
//
// A Graph is safe for concurrent direct Search calls, and mutators
// (InsertEdge, AddKeyword, ...) serialise internally; a direct read sees the
// latest write, publishing a snapshot first when needed. For the paper's
// online-serving scenario use Snapshot: it returns an immutable graph+index
// view through a single atomic pointer load, safe for unlimited lock-free
// readers while updates keep flowing. The graph is a compact frozen CSR base (flat adjacency and
// keyword arrays, built once at load or mapped from a durable snapshot) plus
// the master: a mutable overlay of per-vertex row overrides that each
// effective mutation writes — replacing only the rows it touches — while the
// index is maintained incrementally beside it. Publication is LSM-style: a
// snapshot is an immutable O(delta) copy of that overlay over the shared
// base, and the CL-tree's flattened postings are patched per node rather
// than re-cloned. A background compactor folds the
// overlay back into a fresh frozen base once it crosses a configurable
// threshold (SetCompactionThreshold), off the serving path; readers observe
// only atomic snapshot swaps. ApplyMutations applies a whole batch of edge
// and keyword operations under one lock hold with per-op results and a
// single publication; WriteStats exposes overlay size and compaction
// telemetry. SearchBatch pins one snapshot per batch. Successful snapshot
// queries are memoised in a bounded per-snapshot LRU cache (canceled
// evaluations are never cached); SearchJSON answers from the same cache
// with the result's JSON encoding, made once per entry and shared
// read-only. SnapshotStats reports the latest
// publication latency and frozen payload size.
//
// The engine package wraps all of this in an embeddable HTTP serving engine
// with a versioned JSON protocol — POST /v1/search and /v1/batch — used by
// cmd/acqd. One engine process serves many named Graph collections at once
// (engine.Registry): each collection has its own snapshot chain, maintainer
// and metrics, collections are created/dropped at runtime via POST and
// DELETE /v1/collections (with asynchronous index builds and queryable
// build status), and every data endpoint exists per collection under
// /v1/collections/{name}/... with the unsuffixed forms serving the
// "default" collection.
//
// # Checked invariants
//
// Several of the guarantees above are enforced mechanically, not by
// convention. The analyzers in internal/analysis — run by cmd/acqvet,
// standalone or via go vet -vettool, and by CI — check that no blocking I/O
// happens while a mutex is held (the durability path stages WAL rotations
// and checkpoints off-lock), that graph-sized loops poll their
// cancel.Checker, that served graph.View snapshots are never downcast or
// mutated outside the owning packages, and that HTTP error codes come from
// the generated registry (engine/errorcodes.go, regenerated from the README
// table by go generate ./engine). Contributors adding a loop, a lock region
// or an error code get a diagnostic — with a line-level, justified
// //acqvet:allow escape hatch for the rare intentional exception.
package acq
