package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Client polls one leader's /v1/replication/* endpoints. All methods except
// the getters block on network I/O (the lockio analyzer enforces that they
// are never called under a held mutex).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the leader at base (e.g.
// "http://leader:8475"). A nil hc gets a dedicated client with a 30s
// end-to-end timeout — long enough for a large snapshot chunk, short enough
// that a wedged leader cannot hang a follower's sync loop forever.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// BaseURL reports the leader URL the client polls (in-memory getter).
func (c *Client) BaseURL() string { return c.base }

// get issues one GET against the leader and rejects non-200 statuses with
// the response body in the error (the leader's structured error envelope is
// more useful than a bare status code).
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("replica: leader %s%s: %s: %s", c.base, path, resp.Status, strings.TrimSpace(string(body)))
	}
	return resp, nil
}

// Collections lists the leader's replicable (durable) collections.
func (c *Client) Collections(ctx context.Context) ([]CollectionInfo, error) {
	resp, err := c.get(ctx, "/v1/replication/collections")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Collections []CollectionInfo `json:"collections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("replica: decoding collection listing: %w", err)
	}
	return body.Collections, nil
}

// FetchSnapshot downloads the named collection's current snapshot blob into
// dstPath (atomically: a staging file replaced by rename, so a crashed or
// cancelled download never leaves a half-written snapshot under the real
// name) and returns the graph version the blob captures.
func (c *Client) FetchSnapshot(ctx context.Context, name, dstPath string) (uint64, error) {
	resp, err := c.get(ctx, "/v1/replication/collections/"+url.PathEscape(name)+"/snapshot")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	version, err := strconv.ParseUint(resp.Header.Get(VersionHeader), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("replica: snapshot response missing %s: %w", VersionHeader, err)
	}
	tmp := dstPath + ".dl"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("replica: downloading snapshot %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, dstPath); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return version, nil
}

// Tail fetches the named collection's tail after version from: the body
// (a WAL header and the leader's frames, for acq.Graph.ApplyReplicated), the
// leader's version at serve time, and whether the leader demanded a reset.
// maxOps <= 0 leaves the cap to the leader.
func (c *Client) Tail(ctx context.Context, name string, from uint64, maxOps int) (frames []byte, leaderVersion uint64, reset bool, err error) {
	path := fmt.Sprintf("/v1/replication/collections/%s/tail?from=%d", url.PathEscape(name), from)
	if maxOps > 0 {
		path += fmt.Sprintf("&max_ops=%d", maxOps)
	}
	resp, err := c.get(ctx, path)
	if err != nil {
		return nil, 0, false, err
	}
	defer resp.Body.Close()
	leaderVersion, err = strconv.ParseUint(resp.Header.Get(LeaderVersionHeader), 10, 64)
	if err != nil {
		return nil, 0, false, fmt.Errorf("replica: tail response missing %s: %w", LeaderVersionHeader, err)
	}
	if resp.Header.Get(ResetHeader) == "true" {
		return nil, leaderVersion, true, nil
	}
	if frames, err = io.ReadAll(resp.Body); err != nil {
		return nil, leaderVersion, false, fmt.Errorf("replica: reading tail of %s: %w", name, err)
	}
	return frames, leaderVersion, false, nil
}

// snapshotName is the file the downloaded blob lands under inside a
// follower's per-collection directory — the same name acq durability uses,
// so acq.OpenDurable picks it up as a clean cold start.
const snapshotName = "snapshot.acqm"

// SnapshotPath returns where a bootstrap for dir would place the blob.
func SnapshotPath(dir string) string { return filepath.Join(dir, snapshotName) }
