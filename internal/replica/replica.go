// Package replica is the cluster tier's snapshot-shipping replication
// protocol: the listing type and response headers of a leader's
// /v1/replication/* endpoints, the HTTP client a follower polls them with, and the Syncer that drives one
// collection's bootstrap-then-catch-up state machine.
//
// The protocol ships the durability artefacts unchanged. A follower
// bootstraps by downloading the leader's current mapped snapshot (the same
// snapshot.acqm bytes a local restart would mmap) into its own durability
// directory and opening it with acq.OpenDurable; from then on it polls the
// leader's WAL tail — the leader's CRC-framed WAL records after its own
// version, byte for byte, behind a log header — and hands the body to
// acq.Graph.ApplyReplicated, which checks every frame, applies the records
// and WAL-logs them locally in turn. The op encoding is the wal package's
// alone; this package never decodes a frame. A follower restart therefore
// recovers from local disk and only fetches the records it missed; only
// divergence (or a leader that checkpointed the requested tail away) forces
// a fresh bootstrap, which the leader signals with ResetHeader.
//
// Every Client and Syncer method that talks to the leader blocks on network
// I/O; the lockio analyzer (cmd/acqvet) flags calls to them under a held
// mutex, exactly like WAL appends — a follower must never poll the leader
// while holding its graph's writer lock.
package replica

// CollectionInfo is one collection in the leader's replication listing
// (GET /v1/replication/collections). Only durable collections are listed:
// replication ships durability artefacts, so a non-durable collection has
// nothing to ship.
type CollectionInfo struct {
	Name string `json:"name"`
	// Version is the leader graph's current mutation version.
	Version uint64 `json:"version"`
	// LastCheckpointVersion is the version of the snapshot blob a bootstrap
	// would download right now; the WAL tail covers the rest.
	LastCheckpointVersion uint64 `json:"last_checkpoint_version"`
	// WALBytes is the size of the leader's live WAL segment.
	WALBytes int64 `json:"wal_bytes"`
}

// Response headers. The snapshot endpoint stamps the blob's graph version in
// VersionHeader. The tail endpoint's body is WAL bytes, so its metadata
// travels in headers: LeaderVersionHeader carries the leader graph's version
// at serve time (the follower's lag is that minus its own version after
// applying the body), and ResetHeader, set to "true", reports that no
// contiguous tail from the requested version exists anymore and the
// follower must re-bootstrap from the snapshot endpoint.
const (
	VersionHeader       = "X-Acq-Snapshot-Version"
	LeaderVersionHeader = "X-Acq-Leader-Version"
	ResetHeader         = "X-Acq-Tail-Reset"
)
