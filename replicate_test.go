package acq

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestReplicationTailFromInsideABatchResets: a follower always stands at a
// leader batch boundary, so a from inside a logged batch names a different
// history and gets reset rather than a trimmed frame.
func TestReplicationTailFromInsideABatchResets(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	G := buildDurableBase(t, n)
	if err := G.EnableDurability(DurableOptions{Dir: dir, SyncMode: "never"}); err != nil {
		t.Fatal(err)
	}
	v := G.Version()
	applyAll(t, G, [][]Mutation{{
		{Op: OpInsertEdge, U: 0, V: 15},
		{Op: OpAddKeyword, Vertex: 3, Keyword: "fresh"},
		{Op: OpRemoveEdge, U: 4, V: 5},
	}})
	if got := G.Version(); got != v+3 {
		t.Fatalf("version %d after a 3-op batch at %d", got, v)
	}

	frames, reset, err := G.ReplicationTail(v+1, 0)
	if err != nil || !reset || frames != nil {
		t.Fatalf("ReplicationTail(v+1) = %d bytes, reset %v, err %v; want reset", len(frames), reset, err)
	}

	// From the batch boundary the tail is the log itself: header plus the
	// one frame, byte for byte.
	frames, reset, err = G.ReplicationTail(v, 0)
	if err != nil || reset {
		t.Fatalf("ReplicationTail(v): reset %v, err %v", reset, err)
	}
	log, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frames, log) {
		t.Fatalf("tail of %d bytes differs from the %d-byte log", len(frames), len(log))
	}
}

// TestApplyReplicatedLogsTheLeadersFrames: a durable follower that applies a
// leader's tail logs the same frames, a body whose frames do not continue
// one another is rejected before anything applies, and replaying a frame the
// follower already holds is divergence.
func TestApplyReplicatedLogsTheLeadersFrames(t *testing.T) {
	const n = 40
	leader := buildDurableBase(t, n)
	if err := leader.EnableDurability(DurableOptions{Dir: t.TempDir(), SyncMode: "never"}); err != nil {
		t.Fatal(err)
	}
	followerDir := t.TempDir()
	follower := buildDurableBase(t, n)
	if err := follower.EnableDurability(DurableOptions{Dir: followerDir, SyncMode: "never"}); err != nil {
		t.Fatal(err)
	}
	v := leader.Version()
	batches := durableBatches(n)
	applyAll(t, leader, batches)

	frames, reset, err := leader.ReplicationTail(v, 0)
	if err != nil || reset {
		t.Fatalf("ReplicationTail: reset %v, err %v", reset, err)
	}
	// Intact frames that do not continue one another are not a tail: the
	// body is rejected whole, before anything applies.
	repeated := append(bytes.Clone(frames), frames[8:]...)
	if applied, err := follower.ApplyReplicated(repeated); err == nil || errors.Is(err, ErrReplicaDiverged) || applied != 0 || follower.Version() != v {
		t.Fatalf("repeated frames: %d ops, err %v, follower at %d; want a rejection at %d", applied, err, follower.Version(), v)
	}

	applied, err := follower.ApplyReplicated(frames)
	if err != nil || follower.Version() != leader.Version() || applied != int(leader.Version()-v) {
		t.Fatalf("ApplyReplicated: %d ops, err %v; follower at %d, leader at %d", applied, err, follower.Version(), leader.Version())
	}
	log, err := os.ReadFile(filepath.Join(followerDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frames, log) {
		t.Fatalf("follower log (%d bytes) differs from the leader's tail (%d bytes)", len(log), len(frames))
	}
	assertSameGraph(t, leader, follower)

	if applied, err := follower.ApplyReplicated(frames); !errors.Is(err, ErrReplicaDiverged) || applied != 0 {
		t.Fatalf("re-applying the tail: %d ops, err %v; want ErrReplicaDiverged", applied, err)
	}
}
