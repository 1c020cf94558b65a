package engine

// Three-process cluster crash tests. The parent runs one leader and two
// followers as real OS processes over loopback HTTP (the test binary
// re-executed as TestClusterProcHelper), streams mutation batches at the
// leader, SIGKILLs a follower mid-catch-up and the leader mid-tail-serve,
// restarts both on the same addresses and data directories, and asserts that
// every replica converges to byte-identical answers for all six Query.Modes.
// The kills are hard (SIGKILL): nothing flushes that was not already durable,
// so this exercises follower restart-from-local-WAL and leader crash
// recovery under live replication traffic.

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestClusterProcHelper is the re-exec entry point: one cluster node, serving
// until killed. Driven by TestClusterCrashConvergence; skips otherwise.
func TestClusterProcHelper(t *testing.T) {
	role := os.Getenv("ACQ_CLUSTER_ROLE")
	if role == "" {
		t.Skip("cluster helper; driven by TestClusterCrashConvergence")
	}
	cfg := Config{
		DataDir: os.Getenv("ACQ_CLUSTER_DIR"),
		Logf:    silentLogf,
	}
	var e *Engine
	switch role {
	case "leader":
		// First boot seeds the test graph; a restart recovers the durable
		// state instead (New ignores the preload when recovery won).
		e = New(testGraph(t), cfg)
	case "follower":
		cfg.FollowURL = os.Getenv("ACQ_CLUSTER_LEADER")
		cfg.FollowInterval = 10 * time.Millisecond
		e = New(nil, cfg)
	default:
		t.Fatalf("unknown role %q", role)
	}
	addr := os.Getenv("ACQ_CLUSTER_ADDR")
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		// The predecessor on this address was SIGKILLed moments ago; give
		// the kernel a beat to release the port.
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("%s: listen %s: %v", role, addr, err)
	}
	http.Serve(ln, e.Handler()) // until the parent kills us
}

// clusterNode is one helper process the parent controls.
type clusterNode struct {
	role string
	dir  string
	addr string
	cmd  *exec.Cmd
}

func (n *clusterNode) url() string { return "http://" + n.addr }

// start launches (or relaunches) the node's process.
func (n *clusterNode) start(t *testing.T, exe, leaderURL string) {
	t.Helper()
	cmd := exec.Command(exe, "-test.run", "^TestClusterProcHelper$")
	cmd.Env = append(os.Environ(),
		"ACQ_CLUSTER_ROLE="+n.role,
		"ACQ_CLUSTER_DIR="+n.dir,
		"ACQ_CLUSTER_ADDR="+n.addr,
		"ACQ_CLUSTER_LEADER="+leaderURL,
	)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	n.cmd = cmd
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
}

// kill SIGKILLs the node — a crash, not a shutdown.
func (n *clusterNode) kill(t *testing.T) {
	t.Helper()
	if err := n.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	n.cmd.Wait()
}

// freeAddr reserves a loopback port and releases it for the helper to bind.
// The port stays stable across that node's restarts.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// replVersion fetches a node's replicated version of the default collection
// via the replication listing, or 0 if it is not serving yet.
func replVersion(hc *http.Client, base string) (uint64, bool) {
	resp, err := hc.Get(base + "/v1/replication/collections")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var body struct {
		Collections []struct {
			Name    string `json:"name"`
			Version uint64 `json:"version"`
		} `json:"collections"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		return 0, false
	}
	for _, c := range body.Collections {
		if c.Name == DefaultCollection {
			return c.Version, true
		}
	}
	return 0, false
}

// waitVersionAtLeast polls until the node's default collection reaches v.
func waitVersionAtLeast(t *testing.T, hc *http.Client, base string, v uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if got, ok := replVersion(hc, base); ok && got >= v {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never reached version %d", base, v)
}

// postSearch POSTs one search body and returns status + body.
func postSearch(t *testing.T, hc *http.Client, base, q string) (int, string) {
	t.Helper()
	resp, err := hc.Post(base+"/v1/search", "application/json", strings.NewReader(q))
	if err != nil {
		t.Fatalf("%s: %v", base, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestClusterCrashConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster tests")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Timeout: 5 * time.Second}

	leader := &clusterNode{role: "leader", dir: t.TempDir(), addr: freeAddr(t)}
	followers := []*clusterNode{
		{role: "follower", dir: t.TempDir(), addr: freeAddr(t)},
		{role: "follower", dir: t.TempDir(), addr: freeAddr(t)},
	}
	leader.start(t, exe, "")
	waitVersionAtLeast(t, hc, leader.url(), 0)
	for _, f := range followers {
		f.start(t, exe, leader.url())
	}

	// mutate streams one effective toggle batch at the leader: the
	// loner–mike edge and loner's "cats" keyword flip on even/odd rounds, so
	// every batch advances the version and the final state depends on every
	// batch having been applied in order.
	round := 0
	mutate := func() {
		t.Helper()
		var ops string
		if round%2 == 0 {
			ops = `[{"op":"insert_edge","u":"loner","v":"mike"},{"op":"add_keyword","vertex":"loner","keyword":"web"}]`
		} else {
			ops = `[{"op":"remove_edge","u":"loner","v":"mike"},{"op":"remove_keyword","vertex":"loner","keyword":"web"}]`
		}
		round++
		resp, err := hc.Post(leader.url()+"/v1/mutations", "application/json",
			bytes.NewReader([]byte(`{"mutations":`+ops+`}`)))
		if err != nil {
			t.Fatalf("mutations: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutations: %d", resp.StatusCode)
		}
	}

	// Phase 1: stream batches while both followers are catching up from
	// their initial bootstrap, then SIGKILL follower A mid-catch-up.
	for i := 0; i < 5; i++ {
		mutate()
	}
	followers[0].kill(t)
	// More batches land while A is dead — its local copy is now stale and
	// the only path back is its own WAL plus the leader's tail.
	for i := 0; i < 4; i++ {
		mutate()
	}
	followers[0].start(t, exe, leader.url())

	lv, ok := replVersion(hc, leader.url())
	if !ok {
		t.Fatal("leader not serving")
	}
	for _, f := range followers {
		waitVersionAtLeast(t, hc, f.url(), lv)
	}

	// Phase 2: SIGKILL the leader while the followers' 10ms tail polls are
	// in flight against it, restart it on the same address, and keep
	// writing. The restarted leader recovers from its own WAL; the
	// followers resume tailing the same history.
	leader.kill(t)
	leader.start(t, exe, "")
	waitVersionAtLeast(t, hc, leader.url(), lv)
	for i := 0; i < 4; i++ {
		mutate()
	}
	lv, ok = replVersion(hc, leader.url())
	if !ok {
		t.Fatal("restarted leader not serving")
	}
	for _, f := range followers {
		waitVersionAtLeast(t, hc, f.url(), lv)
	}

	// Converged: every Query.Mode must answer byte-identically on all three
	// processes.
	for _, q := range sixModeQueries {
		wantCode, wantBody := postSearch(t, hc, leader.url(), q)
		for i, f := range followers {
			code, body := postSearch(t, hc, f.url(), q)
			if code != wantCode || body != wantBody {
				t.Fatalf("follower %d diverged on %s:\nleader   (%d): %s\nfollower (%d): %s",
					i, q, wantCode, wantBody, code, body)
			}
		}
	}

	// Every follower logged the leader's frames byte for byte over the
	// versions both logs still hold — at least the batches written after the
	// leader's restart, which neither side has checkpointed away.
	for i, f := range followers {
		if n := assertSameFrames(t, filepath.Join(leader.dir, DefaultCollection),
			filepath.Join(f.dir, DefaultCollection)); n == 0 {
			t.Fatalf("follower %d: no WAL frames shared with the leader", i)
		}
	}
}
