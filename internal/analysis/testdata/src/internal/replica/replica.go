// Package replica is the fixture stand-in for the repository's
// internal/replica: the lockio analyzer treats every exported function of an
// "internal/replica" package as leader-polling network I/O, except the
// in-memory getters and constructors (BaseURL, SnapshotPath, NewClient).
package replica

import "context"

// Client polls a leader's replication endpoints.
type Client struct {
	base string
}

// NewClient returns a client for the leader at base (pure constructor).
func NewClient(base string) *Client { return &Client{base: base} }

// BaseURL reports the leader URL (in-memory getter).
func (c *Client) BaseURL() string { return c.base }

// Tail fetches the leader's WAL frames after a version (network I/O).
func (c *Client) Tail(ctx context.Context, name string, from uint64) ([]byte, uint64, bool, error) {
	return nil, from, false, nil
}

// FetchSnapshot downloads the leader's snapshot blob (network + file I/O).
func (c *Client) FetchSnapshot(ctx context.Context, name, dst string) (uint64, error) {
	return 0, nil
}

// Syncer drives one collection's catch-up loop.
type Syncer struct {
	Client *Client
}

// Sync applies one round of tail frames (network I/O).
func (s *Syncer) Sync(ctx context.Context) (int, error) { return 0, nil }

// SnapshotPath returns where a bootstrap would place the blob (pure).
func SnapshotPath(dir string) string { return dir + "/snapshot.acqm" }
