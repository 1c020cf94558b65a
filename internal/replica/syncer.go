package replica

import (
	"context"
	"errors"
	"fmt"
	"os"

	acq "github.com/acq-search/acq"
)

// Syncer drives one collection's replication on a follower: bootstrap from
// the leader's snapshot into a local durability directory, then repeated
// tail polls applied through acq.Graph.ApplyReplicated. The Syncer itself
// holds no locks and owns no goroutine — the engine's follower loop calls it
// and decides cadence; every method blocks on network and/or disk I/O.
type Syncer struct {
	Client     *Client
	Collection string
	// Dir is the follower's local durability directory for this collection.
	// The downloaded snapshot and the locally re-logged WAL live here, so a
	// follower restart recovers from disk and only fetches what it missed.
	Dir string
	// SyncMode / CheckpointEvery configure the local durability exactly like
	// a leader's (acq.DurableOptions semantics).
	SyncMode        string
	CheckpointEvery int
}

func (s *Syncer) options() acq.DurableOptions {
	return acq.DurableOptions{Dir: s.Dir, SyncMode: s.SyncMode, CheckpointEvery: s.CheckpointEvery}
}

// Open recovers the collection from local disk when durable state exists,
// and bootstraps from the leader otherwise (bootstrapped reports which).
// The returned graph stands at some version ≤ the leader's; Sync catches it
// up.
func (s *Syncer) Open(ctx context.Context) (g *acq.Graph, bootstrapped bool, err error) {
	g, err = acq.OpenDurable(s.options())
	if err == nil {
		return g, false, nil
	}
	if !errors.Is(err, acq.ErrNoDurableState) {
		// Damaged local state (half-written download, torn snapshot): a
		// fresh bootstrap replaces it rather than refusing to serve.
		if rmErr := os.RemoveAll(s.Dir); rmErr != nil {
			return nil, false, fmt.Errorf("replica: clearing damaged state for %q: %v (after %w)", s.Collection, rmErr, err)
		}
	}
	g, err = s.Bootstrap(ctx)
	return g, err == nil, err
}

// Bootstrap wipes the local directory, downloads the leader's current
// snapshot blob and opens it as this follower's durable state. The returned
// graph stands at the blob's checkpoint version.
func (s *Syncer) Bootstrap(ctx context.Context) (*acq.Graph, error) {
	if err := os.RemoveAll(s.Dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return nil, err
	}
	version, err := s.Client.FetchSnapshot(ctx, s.Collection, SnapshotPath(s.Dir))
	if err != nil {
		return nil, err
	}
	g, err := acq.OpenDurable(s.options())
	if err != nil {
		return nil, fmt.Errorf("replica: opening bootstrapped snapshot for %q: %w", s.Collection, err)
	}
	if got := g.Version(); got != version {
		return nil, fmt.Errorf("replica: bootstrapped %q at version %d, leader stamped %d", s.Collection, got, version)
	}
	return g, nil
}

// Sync runs one catch-up round: poll the tail from g's version and hand the
// leader's frames to g.ApplyReplicated. It reports the number of ops applied,
// the leader's version at serve time, and whether the leader demanded a reset
// (the tail is gone or the histories diverged — the caller should Bootstrap
// a fresh graph and swap it in). An apply divergence (acq.ErrReplicaDiverged)
// is reported as reset=true too: the recovery is the same. A damaged body is
// an error without reset; the next round polls again.
func (s *Syncer) Sync(ctx context.Context, g *acq.Graph) (applied int, leaderVersion uint64, reset bool, err error) {
	frames, leaderVersion, reset, err := s.Client.Tail(ctx, s.Collection, g.Version(), 0)
	if err != nil || reset {
		return 0, leaderVersion, reset, err
	}
	applied, err = g.ApplyReplicated(frames)
	return applied, leaderVersion, errors.Is(err, acq.ErrReplicaDiverged), err
}
