package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// validateEvery is the stride of from-outside answer validation: every
// validateEvery-th search answer of a client is checked against Problem 1.
const validateEvery = 50

// outcome is what one request produced, apart from its timing.
type outcome struct {
	ok        bool // 200, well-formed and, when checked, a valid answer
	mode      string
	bytes     int
	nonEmpty  bool
	effective int    // write: ops the server reports as changed
	version   uint64 // write: version acknowledged
	err       string
}

// sample is one request: when it was due (closed loop: when it was sent),
// when it was actually sent, when its body had been read, and its outcome.
type sample struct {
	due, sent, done time.Duration // since the run's t0
	outcome
}

// latencyMS is measured from the intended send time, so a stall delays every
// request scheduled behind it instead of silently throttling the generator.
func (s sample) latencyMS() float64 { return ms(s.done - s.due) }

// closedLoop issues do(0), do(1), ... back to back until the clock passes
// until, and returns one sample per request.
func closedLoop(ctx context.Context, t0 time.Time, until time.Duration, do func(i int) outcome) []sample {
	var out []sample
	for i := 0; ctx.Err() == nil; i++ {
		sent := time.Since(t0)
		if sent >= until {
			break
		}
		o := do(i)
		out = append(out, sample{due: sent, sent: sent, done: time.Since(t0), outcome: o})
	}
	return out
}

// openLoop issues do(0) .. do(n-1) on a fixed schedule, request i being due
// at t0 + i·interval, over the given number of workers (the cap on requests
// in flight). A worker that finds its request's due time already passed
// sends at once; the lateness is kept.
func openLoop(ctx context.Context, t0 time.Time, interval time.Duration, n, workers int, do func(i int) outcome) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				if wait := due - time.Since(t0); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				sent := time.Since(t0)
				o := do(i)
				out[i] = sample{due: due, sent: sent, done: time.Since(t0), outcome: o}
			}
		}()
	}
	wg.Wait()
	return out[:min(n, int(next.Load()))]
}

// loadResult is everything observed across one server window.
type loadResult struct {
	reads, kwWrites, edgeWrites []sample // requests inside the measured window
	warm, window                time.Duration
	cpuAt                       []time.Duration // server utime+stime at the slices+1 slice edges
	rssPeakMB                   float64
	before, after               counters
	lastAck                     uint64 // highest version a write acknowledged, any time
	errs                        []string
}

// driver runs one plan against one server.
type driver struct {
	s  *server
	w  workloadDef
	p  *plan
	in *inputs
}

// read issues one search and checks the answer. check forces validation
// against the benchmark's own graph.
func (d *driver) read(q *query, check bool) outcome {
	o := outcome{mode: q.Mode}
	if o.mode == "" {
		o.mode = "core"
	}
	status, body, err := d.s.post(d.s.load, "/v1/search", q.body)
	o.bytes = len(body)
	switch {
	case err != nil:
		o.err = err.Error()
	case status != 200:
		o.err = fmt.Sprintf("status %d: %.200s", status, body)
	default:
		o.ok = true
	}
	// The open loop decodes every answer (it asserts non-empty shares per
	// mode); the closed loops only the ones they validate.
	if o.ok && (check || d.w.open) {
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			o.ok, o.err = false, "bad answer: "+err.Error()
			return o
		}
		o.nonEmpty = a.nonEmpty()
		if check {
			if err := d.in.validate(q, &a, d.p.allow); err != nil {
				o.ok, o.err = false, fmt.Sprintf("invalid answer for vertex %d mode %s: %v", q.ID, o.mode, err)
			}
		}
	}
	return o
}

// mutationsReply is the part of a /v1/mutations body the benchmark reads.
type mutationsReply struct {
	Version uint64 `json:"version"`
	Applied int    `json:"applied"`
}

// write issues one mutation batch over c. Every op of the stream is
// effective by construction, so a batch that applies fewer is a failure.
func (d *driver) write(c *http.Client, b *writeBatch) outcome {
	o := outcome{mode: "kw"}
	if b.edge {
		o.mode = "edge"
	}
	status, body, err := d.s.post(c, "/v1/mutations", b.body)
	if err != nil {
		o.err = err.Error()
		return o
	}
	if status != 200 {
		o.err = fmt.Sprintf("status %d: %.200s", status, body)
		return o
	}
	var r mutationsReply
	if err := json.Unmarshal(body, &r); err != nil {
		o.err = "bad mutations reply: " + err.Error()
		return o
	}
	o.effective, o.version = r.Applied, r.Version
	if r.Applied != len(b.muts) {
		o.err = fmt.Sprintf("batch of %d ops applied %d", len(b.muts), r.Applied)
		return o
	}
	o.ok = true
	return o
}

// run drives the plan for warm-up + window and returns what lay inside the
// window. Server CPU and /metrics are read at the window's two edges.
func (d *driver) run(ctx context.Context, warm, window time.Duration) (*loadResult, error) {
	for _, i := range d.p.prime {
		if o := d.read(&d.p.table[i], false); !o.ok {
			return nil, fmt.Errorf("priming query failed: %s", o.err)
		}
	}
	res := &loadResult{warm: warm, window: window}
	end := warm + window
	lanes := make([][]sample, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	if d.w.open {
		wg.Add(1)
		go func() {
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / openRate)
			n := int(end / interval)
			lanes[0] = openLoop(ctx, t0, interval, n, clients, func(i int) outcome {
				return d.read(d.p.readOp(0, i), i%validateEvery == 0)
			})
		}()
	} else {
		for c := range d.p.order {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lanes[c] = closedLoop(ctx, t0, end, func(i int) outcome {
					return d.read(d.p.readOp(c, i), i%validateEvery == 0)
				})
			}()
		}
	}
	var writes []sample
	if d.p.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The writer is paced, not saturating: a reader that meets the
			// writer's lock waits for apply + fsync + publication, so under a
			// saturating writer about half the reads wait and the median read
			// sits on the edge between the two populations. At writeRate the
			// median read is an unobstructed one and the tail is a waiting one.
			interval := time.Duration(float64(time.Second) / writeRate)
			writes = openLoop(ctx, t0, interval, min(int(end/interval), len(d.p.writes)), 1, func(i int) outcome {
				return d.write(d.s.load, &d.p.writes[i])
			})
		}()
	}

	// Observe the server at every slice edge: CPU at each, /metrics at the
	// window's two ends.
	var obsErr error
	for i := 0; i <= slices && obsErr == nil; i++ {
		select {
		case <-time.After(warm + window*time.Duration(i)/slices - time.Since(t0)):
		case <-ctx.Done():
			obsErr = ctx.Err()
			continue
		}
		var cpu time.Duration
		if cpu, obsErr = d.s.cpuTime(); obsErr != nil {
			continue
		}
		res.cpuAt = append(res.cpuAt, cpu)
		switch i {
		case 0:
			res.before, obsErr = d.s.scrape()
		case slices:
			if res.after, obsErr = d.s.scrape(); obsErr == nil {
				res.rssPeakMB, obsErr = d.s.rssPeakMB()
			}
		}
	}
	wg.Wait()
	if obsErr != nil {
		return nil, fmt.Errorf("observing the server: %w\n%s", obsErr, d.s.stderr)
	}

	inWindow := func(s sample) bool { return s.due >= warm && s.done <= end }
	if d.w.open {
		// A scheduled request counts whenever it was due inside the window:
		// one that completes late, or after the window, misses its limit
		// rather than vanishing.
		inWindow = func(s sample) bool { return s.due >= warm && s.due < end }
	}
	for _, lane := range lanes {
		for _, s := range lane {
			if inWindow(s) {
				res.reads = append(res.reads, s)
			}
		}
	}
	for _, s := range writes {
		if s.ok && s.version > res.lastAck {
			res.lastAck = s.version
		}
		if !inWindow(s) {
			continue
		}
		if s.mode == "edge" {
			res.edgeWrites = append(res.edgeWrites, s)
		} else {
			res.kwWrites = append(res.kwWrites, s)
		}
	}
	for _, group := range [][]sample{res.reads, res.kwWrites, res.edgeWrites} {
		for _, s := range group {
			if !s.ok && len(res.errs) < 5 {
				res.errs = append(res.errs, s.err)
			}
		}
	}
	return res, nil
}
