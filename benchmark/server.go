package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux the Go runtime supports without cgo's sysconf.
const clockTick = 100

// buildAcqd compiles the real server binary into dir. It runs from the
// module root, which is where the benchmark's command is started.
func buildAcqd(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "acqd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/acqd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/acqd: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one running acqd process, observed only from outside: its HTTP
// surface, its /proc entries and its exit.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
	exited chan struct{} // closed once the process has been reaped
	// load carries the workload and is capped at the benchmark's two
	// connections; ctl carries the benchmark's own probes (/healthz,
	// /metrics, the checks after the window) so a scrape never queues behind
	// a client's request.
	load, ctl *http.Client
	ready     time.Duration // spawn → first /healthz reporting the collection ready
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newClient returns an HTTP client capped at conns connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// startServer spawns bin with args on a free port and waits until /healthz
// reports the default collection ready. The process is killed when ctx ends.
func startServer(ctx context.Context, bin string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, stderr: &bytes.Buffer{}, load: newClient(clients), ctl: newClient(1)}
	s.cmd = exec.CommandContext(ctx, bin, append(args, "-addr", addr)...)
	s.cmd.Stderr = s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan struct{})
	s.exited = exited
	go func() {
		// Reaps the child whenever it ends; stop waits on the channel.
		_ = s.cmd.Wait() // the exit status of a killed server carries nothing
		close(exited)
	}()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return nil, fmt.Errorf("acqd exited before it was ready:\n%s", s.stderr)
		default:
		}
		if s.healthy() {
			s.ready = time.Since(start)
			return s, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("acqd not ready after 120 s:\n%s", s.stderr)
}

// health is the part of /healthz the benchmark reads.
type health struct {
	OK          bool   `json:"ok"`
	Version     uint64 `json:"version"`
	Collections map[string]struct {
		State string `json:"state"`
	} `json:"collections"`
}

func (s *server) health() (health, error) {
	var h health
	resp, err := s.ctl.Get(s.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, err
	}
	return h, nil
}

func (s *server) healthy() bool {
	h, err := s.health()
	return err == nil && h.OK && h.Collections["default"].State == "ready"
}

// stop kills the server and waits until the process has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-s.exited
	s.load.CloseIdleConnections()
	s.ctl.CloseIdleConnections()
}

// post sends one request over c and returns the status and the whole body.
func (s *server) post(c *http.Client, path string, body []byte) (int, []byte, error) {
	resp, err := c.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// counters is the part of GET /metrics the benchmark delta-scrapes.
type counters struct {
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	ShedTotal   uint64 `json:"shed_total"`
	Collections map[string]struct {
		DeltaPublishes   uint64 `json:"delta_publishes"`
		CompactionsTotal uint64 `json:"compactions_total"`
		CheckpointsTotal uint64 `json:"checkpoints_total"`
	} `json:"collections"`
}

func (s *server) scrape() (counters, error) {
	var c counters
	resp, err := s.ctl.Get(s.base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return c, fmt.Errorf("decoding /metrics: %w", err)
	}
	return c, nil
}

// cpuTime returns the server's utime+stime so far.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc stat: %d fields", len(fields))
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc stat: bad utime/stime %q %q", fields[11], fields[12])
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// rssPeakMB returns the server's VmHWM in MB.
func (s *server) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc status: bad VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc status: no VmHWM line")
}
