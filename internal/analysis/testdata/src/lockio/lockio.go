// Fixtures for the lockio analyzer: blocking and filesystem calls inside
// mutex regions must be flagged, deliberate exceptions carry
// //acqvet:allow lockio, and unlock-before-I/O stays clean.
package lockio

import (
	"context"
	"os"
	"sync"
	"time"

	"fixture.example/internal/replica"
	"fixture.example/internal/wal"
)

type store struct {
	mu   sync.Mutex
	pub  sync.RWMutex
	f    *os.File
	log  *wal.Log
	path string
}

// --- Violations.

func (s *store) fsyncUnderLock() {
	s.mu.Lock()
	s.f.Sync() // want "file I/O"
	s.mu.Unlock()
}

func (s *store) walAppendUnderDeferredLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Append(wal.Record{}) // want "WAL I/O"
}

func (s *store) renameUnderReadLock() {
	s.pub.RLock()
	os.Rename(s.path, s.path+".bak") // want "filesystem"
	s.pub.RUnlock()
}

func (s *store) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "sleep"
	s.mu.Unlock()
}

// flushLocked runs under a caller-held lock by the *Locked naming
// convention; its whole body is a lock region.
func (s *store) flushLocked() {
	s.f.Sync() // want "caller-held lock"
}

// --- Suppressed: the deliberate WAL-append-under-lock ack path.

func (s *store) ackUnderLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//acqvet:allow lockio — the record must be on the log before the write acks
	return s.log.Append(wal.Record{})
}

// --- Clean.

func (s *store) unlockBeforeIO() {
	s.mu.Lock()
	s.path = "rotated"
	s.mu.Unlock()
	s.f.Sync()
}

// conditionalUnlockReturn exercises the divergence tracking: the early
// return's unlock must not clear the region on the fall-through path, and
// the fall-through unlock must end it before the I/O.
func (s *store) conditionalUnlockReturn(done bool) {
	s.mu.Lock()
	if done {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.f.Sync()
}

// goroutineEscapesRegion: the literal runs concurrently, outside the
// region, so its I/O is not a lock-held call.
func (s *store) goroutineEscapesRegion() {
	s.mu.Lock()
	go func() {
		s.f.Sync()
	}()
	s.mu.Unlock()
}

// inMemoryGettersUnderLock: wal.Log's Size and Path are exempt getters.
func (s *store) inMemoryGettersUnderLock() (int64, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Size(), s.log.Path()
}

// --- Replication client: leader polling is network I/O, never under a lock.

type follower struct {
	mu     sync.Mutex
	client *replica.Client
	syncer *replica.Syncer
}

func (f *follower) tailUnderLock(ctx context.Context) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.client.Tail(ctx, "default", 7) // want "replication network I/O"
}

func (f *follower) bootstrapUnderLock(ctx context.Context) {
	f.mu.Lock()
	f.client.FetchSnapshot(ctx, "default", "/tmp/s.acqm") // want "replication network I/O"
	f.mu.Unlock()
}

func (f *follower) syncUnderDeferredLock(ctx context.Context) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncer.Sync(ctx) // want "replication network I/O"
}

// replicaPureUnderLock: the getters and constructors are in-memory and stay
// clean under a held lock.
func (f *follower) replicaPureUnderLock() (string, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_ = replica.NewClient("http://leader:8475")
	return f.client.BaseURL(), replica.SnapshotPath("/var/lib/acqd/default")
}

// tailAfterUnlock: the compliant shape — snapshot state under the lock,
// poll the leader outside it.
func (f *follower) tailAfterUnlock(ctx context.Context) {
	f.mu.Lock()
	c := f.client
	f.mu.Unlock()
	c.Tail(ctx, "default", 7)
}
