package engine

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	acq "github.com/acq-search/acq"
)

// metrics holds one collection's hot-path counters. Everything is atomic:
// the serving paths never take a lock to account for a request, and each
// request touches only its own collection's counters.
type metrics struct {
	queries          atomic.Uint64 // single queries served (incl. errors)
	queryErrors      atomic.Uint64
	batches          atomic.Uint64 // batch requests served
	batchQueries     atomic.Uint64 // queries inside batches
	updates          atomic.Uint64 // effective or attempted graph updates
	mutationBatches  atomic.Uint64 // POST .../mutations requests served
	queryNanos       atomic.Int64  // total time inside Search, single + batch
	batchQueryErrors atomic.Uint64 // failed queries inside batches
	canceled         atomic.Uint64 // queries stopped by client cancellation
	timedOut         atomic.Uint64 // queries stopped by a deadline
	approxQueries    atomic.Uint64 // queries with an approximation knob set
	inexactResults   atomic.Uint64 // approx results returned without an exactness guarantee
	budgetExhausted  atomic.Uint64 // approx results clipped by their work budget
}

// recordApprox accounts one successfully answered query that carried an
// approximation knob (epsilon / budget / top_r), splitting out how often the
// answers were actually inexact and how often a budget clipped evaluation —
// the operator-facing view of the quality-vs-latency trade.
func (m *metrics) recordApprox(q acq.Query, res *acq.Result) {
	if q.Epsilon <= 0 && q.Budget <= 0 && q.TopR <= 0 {
		return
	}
	m.approxQueries.Add(1)
	if !res.Exact {
		m.inexactResults.Add(1)
	}
	if res.BudgetExhausted {
		m.budgetExhausted.Add(1)
	}
}

// recordQueryError accounts a failed single-query request; failed batch
// items go to recordBatchItemError so QueryErrors/Queries and
// BatchQueryErrors/BatchQueries stay meaningful ratios.
func (m *metrics) recordQueryError(err error) {
	m.queryErrors.Add(1)
	m.recordCancellation(err)
}

// recordBatchItemError accounts one failed query inside a batch.
func (m *metrics) recordBatchItemError(err error) {
	m.batchQueryErrors.Add(1)
	m.recordCancellation(err)
}

// recordCancellation splits out cancellations and deadline expiries so
// operators can see latency-control pressure regardless of request shape.
func (m *metrics) recordCancellation(err error) {
	if errors.Is(err, acq.ErrCanceled) {
		if errors.Is(err, context.DeadlineExceeded) {
			m.timedOut.Add(1)
		} else {
			m.canceled.Add(1)
		}
	}
}

// CollectionMetrics is one collection's slice of the serving counters, as
// exposed per collection under Metrics.Collections.
type CollectionMetrics struct {
	// State is the lifecycle state ("building", "ready", "failed"); Error
	// carries the build failure for failed collections.
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Source describes where the collection's graph came from.
	Source string `json:"source,omitempty"`
	// The per-collection counter mirror of the engine-wide fields; see
	// Metrics for field semantics.
	Queries              uint64 `json:"queries"`
	QueryErrors          uint64 `json:"query_errors"`
	CanceledQueries      uint64 `json:"canceled_queries"`
	TimedOutQueries      uint64 `json:"timed_out_queries"`
	Batches              uint64 `json:"batches"`
	BatchQueries         uint64 `json:"batch_queries"`
	BatchQueryErrors     uint64 `json:"batch_query_errors"`
	Updates              uint64 `json:"updates"`
	MutationBatches      uint64 `json:"mutation_batches"`
	ApproxQueries        uint64 `json:"approx_queries"`
	InexactResults       uint64 `json:"inexact_results"`
	BudgetExhausted      uint64 `json:"budget_exhausted"`
	QueryNanos           int64  `json:"query_nanos"`
	SnapshotVersion      uint64 `json:"snapshot_version"`
	CacheHits            uint64 `json:"cache_hits"`
	CacheMisses          uint64 `json:"cache_misses"`
	IndexBuildNanos      int64  `json:"index_build_nanos"`
	IndexBuildWorkers    int    `json:"index_build_workers"`
	SnapshotPublishNanos int64  `json:"snapshot_publish_nanos"`
	SnapshotBytes        int64  `json:"snapshot_bytes"`
	// Write-path observability (acq.Graph.WriteStats): the delta overlay
	// accumulated since the last full publication or compaction, the
	// compaction trigger and history, and the publication-kind split.
	DeltaOps             int    `json:"delta_ops"`
	DeltaEdges           int    `json:"delta_edges"`
	DeltaKeywords        int    `json:"delta_keywords"`
	DeltaBytes           int    `json:"delta_bytes"`
	CompactionThreshold  int    `json:"compaction_threshold"`
	CompactionInProgress bool   `json:"compaction_in_progress"`
	CompactionsTotal     uint64 `json:"compactions_total"`
	CompactionNanos      int64  `json:"compaction_nanos"`
	FullPublishes        uint64 `json:"full_publishes"`
	DeltaPublishes       uint64 `json:"delta_publishes"`
	// Durability observability (acq.Graph.DurabilityStats): present only for
	// collections with a WAL behind them. WALBytes is the size of the live
	// WAL segment (bounded by checkpointing); RecoveredBatches is how many
	// logged batches the last boot replayed; MappedColdStart reports whether
	// that boot served its first snapshot zero-copy from the mmap'd v2 file.
	Durable               bool   `json:"durable,omitempty"`
	WALBytes              int64  `json:"wal_bytes,omitempty"`
	LastCheckpointVersion uint64 `json:"last_checkpoint_version,omitempty"`
	RecoveredBatches      uint64 `json:"recovered_batches,omitempty"`
	CheckpointsTotal      uint64 `json:"checkpoints_total,omitempty"`
	CheckpointNanos       int64  `json:"checkpoint_nanos,omitempty"`
	MappedColdStart       bool   `json:"mapped_cold_start,omitempty"`
	// Admission-control observability: the current wait-queue depth, how many
	// requests were shed with 429 overloaded, and how many got a slot. All
	// zero when admission control is off (Config.MaxConcurrentQueries == 0).
	QueueDepth    int64  `json:"queue_depth"`
	ShedTotal     uint64 `json:"shed_total"`
	AdmittedTotal uint64 `json:"admitted_total"`
	// Replication observability (followers only): how far this collection
	// lags the leader, in effective mutations and in wall time since the
	// last successful sync round.
	Replica *ReplicaStatus `json:"replica,omitempty"`
}

// Metrics is the exported counter snapshot returned by Engine.Metrics and
// GET /metrics. The top-level counter fields aggregate over every
// collection (so single-collection deployments read exactly what they did
// before multi-collection serving); Collections carries the per-collection
// breakdown. The top-level snapshot/index fields describe the default
// collection, which is the one the unsuffixed endpoints serve.
type Metrics struct {
	// Queries counts single-query requests (POST .../search); QueryErrors
	// those that failed.
	Queries     uint64 `json:"queries"`
	QueryErrors uint64 `json:"query_errors"`
	// CanceledQueries counts evaluations stopped because the caller went
	// away (client disconnect, request cancel); TimedOutQueries those
	// stopped by a deadline (request timeout_ms, per-query timeout, or the
	// server's default/max timeout). Single-query cancellations are also in
	// QueryErrors, batch-item ones in BatchQueryErrors.
	CanceledQueries uint64 `json:"canceled_queries"`
	TimedOutQueries uint64 `json:"timed_out_queries"`
	// Batches counts batch requests, BatchQueries the queries inside them,
	// and BatchQueryErrors the per-item failures — kept separate from
	// QueryErrors so QueryErrors/Queries and BatchQueryErrors/BatchQueries
	// remain meaningful error rates.
	Batches          uint64 `json:"batches"`
	BatchQueries     uint64 `json:"batch_queries"`
	BatchQueryErrors uint64 `json:"batch_query_errors"`
	// Updates counts the edge/keyword operations handed to the graph by
	// POST .../mutations (one per entry whose vertices resolved);
	// MutationBatches counts those requests.
	Updates         uint64 `json:"updates"`
	MutationBatches uint64 `json:"mutation_batches"`
	// ApproxQueries counts answered queries that carried an approximation
	// knob (epsilon / budget / top_r); InexactResults how many of those came
	// back without an exactness guarantee (Exact=false); BudgetExhausted how
	// many were clipped by their per-query work budget.
	ApproxQueries   uint64 `json:"approx_queries"`
	InexactResults  uint64 `json:"inexact_results"`
	BudgetExhausted uint64 `json:"budget_exhausted"`
	// QueryNanos is the cumulative wall time spent evaluating queries.
	QueryNanos int64 `json:"query_nanos"`
	// SnapshotVersion is the graph version of the default collection's
	// currently published snapshot; it increases by one per effective
	// mutation. Zero when no default collection exists.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// CacheHits/CacheMisses accumulate the per-snapshot result-cache
	// counters across all snapshots of all collections.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// IndexBuildNanos is the wall-clock duration of the default collection's
	// most recent CL-tree (re)build; IndexBuildWorkers is the resolved
	// parallel fan-out it used (1 = serial path). Zero until the first
	// build, so the speedup of the parallel index pipeline is observable in
	// serving, not just benchmarks.
	IndexBuildNanos   int64 `json:"index_build_nanos"`
	IndexBuildWorkers int   `json:"index_build_workers"`
	// SnapshotPublishNanos is the wall-clock duration of the default
	// collection's most recent snapshot publication (freezing the graph into
	// its CSR form and cloning the index); SnapshotBytes is the resident
	// size of that snapshot's flat adjacency/keyword arrays. Together they
	// make the cost of copy-on-write republication under a write burst
	// observable in serving.
	SnapshotPublishNanos int64 `json:"snapshot_publish_nanos"`
	SnapshotBytes        int64 `json:"snapshot_bytes"`
	// CompactionsTotal aggregates completed overlay compactions across all
	// collections; the per-collection breakdown carries the full write-path
	// state (delta sizes, thresholds, publication kinds).
	CompactionsTotal uint64 `json:"compactions_total"`
	// QueueDepth aggregates the admission wait queues across collections at
	// snapshot time; ShedTotal counts requests rejected with 429 overloaded.
	QueueDepth int64  `json:"queue_depth"`
	ShedTotal  uint64 `json:"shed_total"`
	// Leader is the URL this engine replicates from; empty on a leader.
	Leader string `json:"leader,omitempty"`
	// Collections breaks every counter down per collection, keyed by
	// collection name, including collections still building or failed.
	Collections map[string]CollectionMetrics `json:"collections"`
}

// metricsSnapshot renders one collection's counters. Deliberately
// observational: it reads Graph.Version rather than pinning a snapshot, so
// a metrics scraper on a write-heavy, read-idle server never marks
// snapshots consumed (which would force eager copy-on-write publications no
// query reader uses).
func (c *Collection) metricsSnapshot() CollectionMetrics {
	cm := CollectionMetrics{
		State:            c.State().String(),
		Source:           c.source,
		Queries:          c.met.queries.Load(),
		QueryErrors:      c.met.queryErrors.Load(),
		CanceledQueries:  c.met.canceled.Load(),
		TimedOutQueries:  c.met.timedOut.Load(),
		Batches:          c.met.batches.Load(),
		BatchQueries:     c.met.batchQueries.Load(),
		BatchQueryErrors: c.met.batchQueryErrors.Load(),
		Updates:          c.met.updates.Load(),
		MutationBatches:  c.met.mutationBatches.Load(),
		ApproxQueries:    c.met.approxQueries.Load(),
		InexactResults:   c.met.inexactResults.Load(),
		BudgetExhausted:  c.met.budgetExhausted.Load(),
		QueryNanos:       c.met.queryNanos.Load(),
	}
	if err := c.Err(); err != nil {
		cm.Error = err.Error()
	}
	if a := c.adm; a != nil {
		cm.QueueDepth = a.queueDepth()
		cm.ShedTotal = a.shed.Load()
		cm.AdmittedTotal = a.admitted.Load()
	}
	if rs := c.ReplicaStatus(); rs != nil {
		snap := rs.snapshot(time.Now())
		cm.Replica = &snap
	}
	if g := c.Graph(); g != nil {
		hits, misses := g.ResultCacheStats()
		buildDur, buildWorkers := g.IndexBuildStats()
		publishDur, snapBytes := g.SnapshotStats()
		cm.SnapshotVersion = g.Version()
		cm.CacheHits = hits
		cm.CacheMisses = misses
		cm.IndexBuildNanos = buildDur.Nanoseconds()
		cm.IndexBuildWorkers = buildWorkers
		cm.SnapshotPublishNanos = publishDur.Nanoseconds()
		cm.SnapshotBytes = int64(snapBytes)
		ws := g.WriteStats()
		cm.DeltaOps = ws.DeltaOps
		cm.DeltaEdges = ws.DeltaEdges
		cm.DeltaKeywords = ws.DeltaKeywords
		cm.DeltaBytes = ws.DeltaBytes
		cm.CompactionThreshold = ws.CompactionThreshold
		cm.CompactionInProgress = ws.CompactionInProgress
		cm.CompactionsTotal = ws.Compactions
		cm.CompactionNanos = ws.LastCompaction.Nanoseconds()
		cm.FullPublishes = ws.FullPublishes
		cm.DeltaPublishes = ws.DeltaPublishes
		if ds := g.DurabilityStats(); ds.Durable {
			cm.Durable = true
			cm.WALBytes = ds.WALBytes
			cm.LastCheckpointVersion = ds.LastCheckpointVersion
			cm.RecoveredBatches = uint64(ds.RecoveredBatches)
			cm.CheckpointsTotal = ds.Checkpoints
			cm.CheckpointNanos = ds.LastCheckpoint.Nanoseconds()
			cm.MappedColdStart = ds.MappedColdStart
		}
	}
	return cm
}

// Metrics returns the current serving counters: aggregates at the top
// level, per-collection breakdown under Collections.
func (e *Engine) Metrics() Metrics {
	m := Metrics{Collections: make(map[string]CollectionMetrics), Leader: e.cfg.FollowURL}
	for _, c := range e.reg.All() {
		cm := c.metricsSnapshot()
		m.Collections[c.Name()] = cm
		m.Queries += cm.Queries
		m.QueryErrors += cm.QueryErrors
		m.CanceledQueries += cm.CanceledQueries
		m.TimedOutQueries += cm.TimedOutQueries
		m.Batches += cm.Batches
		m.BatchQueries += cm.BatchQueries
		m.BatchQueryErrors += cm.BatchQueryErrors
		m.Updates += cm.Updates
		m.MutationBatches += cm.MutationBatches
		m.ApproxQueries += cm.ApproxQueries
		m.InexactResults += cm.InexactResults
		m.BudgetExhausted += cm.BudgetExhausted
		m.QueryNanos += cm.QueryNanos
		m.CacheHits += cm.CacheHits
		m.CacheMisses += cm.CacheMisses
		m.CompactionsTotal += cm.CompactionsTotal
		m.QueueDepth += cm.QueueDepth
		m.ShedTotal += cm.ShedTotal
		if c.Name() == DefaultCollection {
			m.SnapshotVersion = cm.SnapshotVersion
			m.IndexBuildNanos = cm.IndexBuildNanos
			m.IndexBuildWorkers = cm.IndexBuildWorkers
			m.SnapshotPublishNanos = cm.SnapshotPublishNanos
			m.SnapshotBytes = cm.SnapshotBytes
		}
	}
	return m
}

func (e *Engine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, e.Metrics())
}
