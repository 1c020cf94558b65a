package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	acq "github.com/acq-search/acq"
	"github.com/acq-search/acq/internal/wal"
)

// fakeTail is the tail a fakeLeader serves: body for ?from=From, with Head
// in the leader-version header. Any other from answers 400.
type fakeTail struct {
	From, Head uint64
	Body       []byte
}

// fakeLeader serves a minimal replication surface from canned data.
func fakeLeader(t *testing.T, blob []byte, version string, tail fakeTail) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/collections", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"collections":[{"name":"default","version":12,"last_checkpoint_version":10,"wal_bytes":64}]}`))
	})
	mux.HandleFunc("GET /v1/replication/collections/default/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if version != "" {
			w.Header().Set(VersionHeader, version)
		}
		w.Write(blob)
	})
	mux.HandleFunc("GET /v1/replication/collections/default/tail", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("from") != strconv.FormatUint(tail.From, 10) {
			http.Error(w, `{"error":{"code":"bad_request"}}`, http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(LeaderVersionHeader, strconv.FormatUint(tail.Head, 10))
		w.Write(tail.Body)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestClientAgainstFakeLeader(t *testing.T) {
	blob := []byte("not a real snapshot, the client ships bytes blindly")
	srv := fakeLeader(t, blob, "10", fakeTail{From: 12, Head: 12, Body: wal.AppendHeader(nil)})
	c := NewClient(srv.URL+"/", nil) // trailing slash is normalised away
	if c.BaseURL() != srv.URL {
		t.Fatalf("base = %q", c.BaseURL())
	}
	ctx := context.Background()

	infos, err := c.Collections(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := CollectionInfo{Name: "default", Version: 12, LastCheckpointVersion: 10, WALBytes: 64}
	if len(infos) != 1 || infos[0] != want {
		t.Fatalf("collections = %+v", infos)
	}

	dst := SnapshotPath(t.TempDir())
	v, err := c.FetchSnapshot(ctx, "default", dst)
	if err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Fatalf("snapshot version = %d", v)
	}
	got, err := os.ReadFile(dst)
	if err != nil || string(got) != string(blob) {
		t.Fatalf("blob = %q, %v", got, err)
	}
	if _, err := os.Stat(dst + ".dl"); !os.IsNotExist(err) {
		t.Fatal("staging file left behind")
	}

	frames, leaderV, reset, err := c.Tail(ctx, "default", 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if leaderV != 12 || reset || !bytes.Equal(frames, wal.AppendHeader(nil)) {
		t.Fatalf("tail = %q, leader %d, reset %v", frames, leaderV, reset)
	}
	// The leader's structured error surfaces in the client error.
	if _, _, _, err := c.Tail(ctx, "default", 3, 0); err == nil {
		t.Fatal("leader 400 not surfaced")
	}
}

func TestFetchSnapshotMissingVersionHeader(t *testing.T) {
	srv := fakeLeader(t, []byte("blob"), "", fakeTail{})
	c := NewClient(srv.URL, nil)
	dir := t.TempDir()
	if _, err := c.FetchSnapshot(context.Background(), "default", SnapshotPath(dir)); err == nil {
		t.Fatal("missing version header accepted")
	}
	// The failed download must not leave a snapshot under the real name —
	// acq.OpenDurable would otherwise try to map garbage on the next boot.
	if _, err := os.Stat(SnapshotPath(dir)); !os.IsNotExist(err) {
		t.Fatal("failed fetch left a snapshot file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".dl" {
			t.Fatalf("staging file %s left behind", e.Name())
		}
	}
}

// buildSquare returns a four-vertex graph with keywords, the same each call.
func buildSquare(t *testing.T) *acq.Graph {
	t.Helper()
	b := acq.NewBuilder()
	for _, l := range []string{"a", "b", "c", "d"} {
		b.AddVertex(l, "research")
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.BuildIndex()
	return g
}

// leaderTail applies two batches to a durable leader and returns its tail
// body over them, the leader's version after them, and a twin follower that
// stands where the leader stood before them.
func leaderTail(t *testing.T) (body []byte, head uint64, follower *acq.Graph) {
	t.Helper()
	leader := buildSquare(t)
	if err := leader.EnableDurability(acq.DurableOptions{Dir: t.TempDir(), SyncMode: "never"}); err != nil {
		t.Fatal(err)
	}
	follower = buildSquare(t)
	from := leader.Version()
	for _, batch := range [][]acq.Mutation{
		{{Op: acq.OpInsertEdge, U: 0, V: 3}, {Op: acq.OpAddKeyword, Vertex: 0, Keyword: "yoga"}},
		{{Op: acq.OpRemoveEdge, U: 1, V: 2}, {Op: acq.OpRemoveKeyword, Vertex: 2, Keyword: "research"}},
	} {
		for i, res := range leader.ApplyMutations(batch) {
			if !res.Changed {
				t.Fatalf("op %d not effective: %v", i, res.Err)
			}
		}
	}
	body, reset, err := leader.ReplicationTail(from, 0)
	if err != nil || reset {
		t.Fatalf("ReplicationTail: reset=%v err=%v", reset, err)
	}
	return body, leader.Version(), follower
}

// syncFrom runs one Sync of follower against a fake leader serving body.
func syncFrom(t *testing.T, follower *acq.Graph, head uint64, body []byte) (int, bool, error) {
	t.Helper()
	srv := fakeLeader(t, nil, "", fakeTail{From: follower.Version(), Head: head, Body: body})
	s := &Syncer{Client: NewClient(srv.URL, nil), Collection: "default"}
	applied, leaderV, reset, err := s.Sync(context.Background(), follower)
	if leaderV != head {
		t.Fatalf("Sync reported leader version %d, want %d", leaderV, head)
	}
	return applied, reset, err
}

// TestSyncRejectsDamagedBody: a tail body with one flipped byte inside its
// second frame, or cut off mid-frame, is transport damage, not divergence —
// Sync fails without reset, applies nothing (not even the intact first
// frame), and the next poll starts from the same version. The intact body
// then applies in full.
func TestSyncRejectsDamagedBody(t *testing.T) {
	body, head, follower := leaderTail(t)
	from := follower.Version()
	second := 8 + 8 + int(binary.LittleEndian.Uint32(body[8:12]))
	if second >= len(body) {
		t.Fatalf("body of %d bytes holds one frame", len(body))
	}
	flipped := bytes.Clone(body)
	flipped[second+8+2] ^= 0xff // inside the second frame's payload

	for name, bad := range map[string][]byte{
		"flipped byte in frame 2": flipped,
		"cut mid-frame":           body[:len(body)-3],
	} {
		applied, reset, err := syncFrom(t, follower, head, bad)
		if err == nil || errors.Is(err, acq.ErrReplicaDiverged) || reset {
			t.Fatalf("%s: Sync err=%v reset=%v, want a plain error without reset", name, err, reset)
		}
		if applied != 0 || follower.Version() != from {
			t.Fatalf("%s: applied %d ops, follower at %d, want 0 ops at %d", name, applied, follower.Version(), from)
		}
	}

	applied, reset, err := syncFrom(t, follower, head, body)
	if err != nil || reset || applied != 4 || follower.Version() != head {
		t.Fatalf("intact body: applied %d, reset %v, err %v, follower at %d (leader %d)",
			applied, reset, err, follower.Version(), head)
	}
}

// TestSyncRejectsWrongMagic: a body that is not a WAL stream — another
// format, or a protocol version skew — must fail loudly instead of applying
// garbage.
func TestSyncRejectsWrongMagic(t *testing.T) {
	body, head, follower := leaderTail(t)
	from := follower.Version()
	bad := bytes.Clone(body)
	copy(bad, "NOPE")
	applied, reset, err := syncFrom(t, follower, head, bad)
	if !errors.Is(err, wal.ErrBadFormat) || errors.Is(err, acq.ErrReplicaDiverged) || reset {
		t.Fatalf("Sync err=%v reset=%v, want wal.ErrBadFormat without reset", err, reset)
	}
	if applied != 0 || follower.Version() != from {
		t.Fatalf("applied %d ops, follower at %d, want 0 ops at %d", applied, follower.Version(), from)
	}
}
