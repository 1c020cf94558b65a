package acq

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/acq-search/acq/internal/dataio"
	"github.com/acq-search/acq/internal/wal"
)

// Replication rides entirely on the durability artefacts: the mapped snapshot
// is the bootstrap blob a follower downloads, and the CRC-framed WAL is the
// incremental stream it replays to stay caught up. A leader therefore needs
// nothing beyond an armed durability directory — SnapshotBlob streams the
// current snapshot.acqm and ReplicationTail copies the WAL frames after a
// given version, byte for byte, out of wal.log (and any wal.prev-* a
// checkpoint left mid-rotation). Both are plain file reads against
// immutable-once-written bytes: the snapshot is only ever replaced by an
// atomic rename (the served descriptor survives it), and WAL records are
// appended with a single write call, so a concurrent reader sees either a
// whole record or a torn tail it stops at.
//
// A follower applies a tail body through ApplyReplicated, which checks every
// frame before applying any and then applies each record through the same
// applyRecord crash recovery uses: every logged op changed the leader's
// graph, so it must change the follower's too, and the version must advance
// in lockstep. A violation reports ErrReplicaDiverged — the follower's cue
// to throw its state away and re-bootstrap from a fresh snapshot. The
// follower's own WAL logs each record again through ApplyMutations, so its
// frames equal the leader's over the same versions.

// ErrReplicaDiverged reports a replicated batch that does not continue the
// local graph's history: the version did not line up, or an op that was
// effective on the leader was a no-op here. Recovery is a fresh bootstrap.
var ErrReplicaDiverged = errors.New("acq: replica diverged from the leader's history")

// DefaultReplicationTailOps bounds the effective ops returned by one
// ReplicationTail call when the caller passes maxOps <= 0. A follower that
// is far behind catches up over several polls instead of one unbounded
// response.
const DefaultReplicationTailOps = 1 << 14

// SnapshotBlob opens the current on-disk snapshot for streaming to a
// bootstrapping follower: the mapped container bytes, the graph version they
// capture, and their size (for Content-Length). The descriptor stays valid
// even if a checkpoint atomically replaces the file mid-transfer. Requires
// durability (ErrNotDurable otherwise) — replication ships the durability
// artefacts, it does not invent a second format.
func (G *Graph) SnapshotBlob() (rc io.ReadCloser, version uint64, size int64, err error) {
	d := G.dur
	if d == nil {
		return nil, 0, 0, ErrNotDurable
	}
	f, err := os.Open(filepath.Join(d.dir, snapshotFile))
	if err != nil {
		return nil, 0, 0, err
	}
	version, err = dataio.PeekMappedVersion(f)
	if err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	return f, version, fi.Size(), nil
}

// Scan-internal signals: the on-disk records do not continue contiguously
// from the requested version (a gap, or a record that straddles it), or the
// scan collected maxOps effective ops.
var (
	errTailGap      = errors.New("acq: replication tail gap")
	errTailStraddle = errors.New("acq: replication tail straddles the requested version")
	errTailFull     = errors.New("acq: replication tail full")
)

// ReplicationTail returns the WAL frames after version from: a log header
// followed by the leader's frames covering (from, head], copied byte for
// byte and ending with the whole frame that brings the op count to maxOps
// (DefaultReplicationTailOps when <= 0). A header-only body means the
// follower is caught up. reset reports that no contiguous tail from that
// version exists — the records were checkpointed away, or from is not a
// batch boundary of this graph's history — and only a fresh SnapshotBlob
// bootstrap can continue. Requires durability (ErrNotDurable otherwise).
//
// A follower always stands at a batch boundary: a write applies and logs its
// batch in one G.mu hold, a checkpoint captures its version under G.mu, and
// followers apply whole frames. So a from inside a record means the follower
// has a different history, and it gets reset.
//
// The scan races benignly with checkpoints: a rotation can move records
// between files mid-scan, which at worst surfaces as a gap. One retry
// absorbs that window; a gap on the second pass is reported as reset.
func (G *Graph) ReplicationTail(from uint64, maxOps int) (frames []byte, reset bool, err error) {
	d := G.dur
	if d == nil {
		return nil, false, ErrNotDurable
	}
	if maxOps <= 0 {
		maxOps = DefaultReplicationTailOps
	}
	// Read the head under the writer lock: a batch bumps the version and
	// appends its record in one hold, so every version up to head is on disk.
	G.mu.Lock()
	head := G.version.Load()
	G.mu.Unlock()
	if from > head {
		// The follower has history this leader does not: a divergent or
		// rebuilt leader. Only a bootstrap reconciles that.
		return nil, true, nil
	}
	hdr := wal.AppendHeader(nil)
	if from == head {
		return hdr, false, nil
	}
	for attempt := 0; ; attempt++ {
		frames, err := scanTail(d.dir, hdr, from, maxOps)
		if err == nil && len(frames) == len(hdr) {
			err = errTailGap // from < head, yet nothing on disk continues it
		}
		switch {
		case err == nil:
			return frames, false, nil
		case errors.Is(err, errTailGap) && attempt == 0:
			continue // likely a rotation mid-scan; one clean retry
		case errors.Is(err, errTailGap), errors.Is(err, errTailStraddle):
			// The records were checkpointed away (or a settle deleted the
			// rotated logs), or from is not one of this history's versions.
			return nil, true, nil
		default:
			return nil, false, err
		}
	}
}

// scanTail walks the rotated logs (version order) then the active log,
// appending to frames the contiguous run of frames after from.
func scanTail(dir string, frames []byte, from uint64, maxOps int) ([]byte, error) {
	prevs, err := sortedWalPrevs(dir)
	if err != nil {
		return nil, err
	}
	expect, total := from, 0
	for _, p := range append(prevs, filepath.Join(dir, walFile)) {
		f, err := os.Open(p)
		if errors.Is(err, os.ErrNotExist) {
			// A finishing checkpoint deleted this rotated log; continuity
			// tracking catches any hole that opens.
			continue
		}
		if err != nil {
			return nil, err
		}
		_, _, err = wal.ReadFrames(f, func(rec wal.Record, frame []byte) error {
			post := rec.PreVersion + uint64(len(rec.Ops))
			switch {
			case post <= expect:
				return nil // fully behind the follower already
			case rec.PreVersion > expect:
				return errTailGap
			case rec.PreVersion < expect:
				return errTailStraddle
			}
			frames = append(frames, frame...)
			expect, total = post, total+len(rec.Ops)
			if total >= maxOps {
				return errTailFull
			}
			return nil
		})
		f.Close()
		if errors.Is(err, errTailFull) {
			return frames, nil
		}
		if err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// ApplyReplicated applies a tail body, as ReplicationTail returns it, to a
// follower graph and reports the ops applied. The whole body is checked
// before anything applies: the log header, each frame's CRC32C, intact frames
// that reach the body's last byte, and each frame's pre-version continuing
// the previous one. A body that fails these checks was damaged in transit or
// is not a tail at all; it is rejected with nothing applied and no
// ErrReplicaDiverged, so the follower just polls again. Each record then
// applies through applyRecord, the check crash recovery runs: the graph must
// stand at the record's pre-version and every op must be effective. A
// violation reports ErrReplicaDiverged without applying further records; the
// caller re-bootstraps.
func (G *Graph) ApplyReplicated(frames []byte) (applied int, err error) {
	var recs []wal.Record
	end, _, err := wal.ReadFrames(bytes.NewReader(frames), func(rec wal.Record, _ []byte) error {
		if n := len(recs); n > 0 {
			if want := recs[n-1].PreVersion + uint64(len(recs[n-1].Ops)); rec.PreVersion != want {
				return fmt.Errorf("acq: replicated frame at version %d does not continue the previous one (want %d)", rec.PreVersion, want)
			}
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if end != int64(len(frames)) {
		return 0, fmt.Errorf("acq: replicated tail damaged: intact frames end at byte %d of %d", end, len(frames))
	}
	for _, rec := range recs {
		if err := G.applyRecord(rec); err != nil {
			return applied, fmt.Errorf("%w: %v", ErrReplicaDiverged, err)
		}
		applied += len(rec.Ops)
	}
	return applied, nil
}
