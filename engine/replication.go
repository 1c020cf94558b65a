package engine

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	acq "github.com/acq-search/acq"
	"github.com/acq-search/acq/internal/replica"
)

// The replication plane: the three GET endpoints a follower polls. They ship
// the durability artefacts unchanged — the snapshot endpoint streams the
// leader's current mapped snapshot.acqm bytes and the tail endpoint copies
// the WAL frames after a given version byte for byte — so a follower's
// on-disk state is byte-compatible with a leader restart's.
// Only durable, ready collections are replicable: a non-durable collection
// has no artefacts to ship (the snapshot/tail endpoints answer the existing
// 409 not_durable for them).

// handleReplicationList serves GET /v1/replication/collections: the durable,
// ready collections a follower should mirror, with the versions it needs to
// plan bootstrap vs catch-up.
func (e *Engine) handleReplicationList(w http.ResponseWriter, r *http.Request) {
	var infos []replica.CollectionInfo
	for _, c := range e.reg.All() {
		g := c.Graph()
		if c.State() != CollectionReady || g == nil {
			continue
		}
		ds := g.DurabilityStats()
		if !ds.Durable {
			continue
		}
		infos = append(infos, replica.CollectionInfo{
			Name:                  c.Name(),
			Version:               g.Version(),
			LastCheckpointVersion: ds.LastCheckpointVersion,
			WALBytes:              ds.WALBytes,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"collections": infos})
}

// serveReplicationSnapshot streams the collection's current snapshot blob
// (GET .../{name}/snapshot). The blob's graph version rides in the
// X-Acq-Snapshot-Version header; the open file descriptor keeps serving the
// same bytes even if a concurrent checkpoint renames a fresh snapshot over
// the name mid-transfer.
func (e *Engine) serveReplicationSnapshot(w http.ResponseWriter, r *http.Request, c *Collection, g *acq.Graph) {
	rc, version, size, err := g.SnapshotBlob()
	if err != nil {
		writeV1Error(w, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set(replica.VersionHeader, strconv.FormatUint(version, 10))
	if _, err := io.Copy(w, rc); err != nil {
		// Headers are gone; all we can do is log and let the client's
		// truncated read fail its own length check.
		e.cfg.Logf("engine: replication: streaming snapshot of %q: %v", c.Name(), err)
	}
}

// serveReplicationTail serves GET .../{name}/tail?from=N[&max_ops=M]: an
// octet-stream of a WAL header and the leader's frames after version N, with
// the leader's version in X-Acq-Leader-Version, or X-Acq-Tail-Reset: true
// when no contiguous tail from N survives (checkpointed away, or N is from a
// different history).
func (e *Engine) serveReplicationTail(w http.ResponseWriter, r *http.Request, c *Collection, g *acq.Graph) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeV1Error(w, fmt.Errorf("bad from parameter: %w", err))
		return
	}
	maxOps := acq.DefaultReplicationTailOps
	if s := r.URL.Query().Get("max_ops"); s != "" {
		m, err := strconv.Atoi(s)
		if err != nil || m <= 0 {
			writeV1Error(w, fmt.Errorf("bad max_ops parameter: %q", s))
			return
		}
		maxOps = m
	}
	frames, reset, err := g.ReplicationTail(from, maxOps)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(frames)))
	h.Set(replica.LeaderVersionHeader, strconv.FormatUint(g.Version(), 10))
	if reset {
		h.Set(replica.ResetHeader, "true")
	}
	w.Write(frames)
}

// rejectFollowerWrite answers write requests on a read replica with the
// structured 403 not_leader naming the leader, and reports whether it did.
// Checkpoints stay allowed on followers: they are local durability
// maintenance, not writes to the replicated history.
func (e *Engine) rejectFollowerWrite(w http.ResponseWriter) bool {
	if e.fol == nil {
		return false
	}
	writeJSON(w, codeStatus[codeNotLeader], map[string]any{"error": wireError{
		Code:    codeNotLeader,
		Message: fmt.Sprintf("this server is a read replica; send writes to the leader at %s", e.cfg.FollowURL),
	}})
	return true
}
