package acq_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	acq "github.com/acq-search/acq"
)

// expiringCtx is a deadline that passes its first n−1 polls of Err and has
// expired from the n-th on. Snapshot.Search polls once up front and the
// evaluator's entry point once more, so n = 3 expires at the walk's first
// checkpoint: after the query took its scratch, before it finished.
type expiringCtx struct {
	context.Context
	n, polls int
}

var neverDone = make(chan struct{})

func (c *expiringCtx) Done() <-chan struct{} { return neverDone }

func (c *expiringCtx) Err() error {
	if c.polls++; c.polls >= c.n {
		return context.DeadlineExceeded
	}
	return nil
}

// TestPooledScratchUnderConcurrentUnwinds: eight readers share one
// snapshot's pooled query scratch while half of their queries are cut short,
// by a 1 µs deadline, by a deadline expiring at the walk's first checkpoint,
// or by a one-unit work budget. A scratch space whose release an unwind
// skipped stays handed out; one that two queries share is a data race under
// -race and corrupts answers. Afterwards every exact answer must still equal
// its serial reference.
func TestPooledScratchUnderConcurrentUnwinds(t *testing.T) {
	g, err := acq.Synthetic("dblp", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	g.BuildIndex()
	g.SetResultCacheSize(-1) // every query evaluates
	snap := g.Snapshot()

	// Exact core, clique and truss queries on deep-core vertices, keeping the
	// ones cheap enough to repeat many times under the race detector.
	rng := rand.New(rand.NewSource(3))
	var qs []acq.Query
	var refs []acq.Result
	for tries := 0; len(qs) < 24 && tries < 10000; tries++ {
		v := int32(rng.Intn(snap.NumVertices()))
		if c, _ := snap.CoreNumber(v); c < 4 {
			continue
		}
		for _, mode := range []acq.Mode{acq.ModeCore, acq.ModeClique, acq.ModeTruss} {
			q := acq.Query{VertexID: v, K: 4, Mode: mode}
			ctx, cancelFn := context.WithTimeout(context.Background(), 5*time.Millisecond)
			res, err := snap.Search(ctx, q)
			cancelFn()
			if err == nil {
				qs, refs = append(qs, q), append(refs, res)
			}
		}
	}
	if len(qs) < 12 {
		t.Fatalf("only %d cheap reference queries", len(qs))
	}

	var midWalk, exhausted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, q := range qs {
					switch (i + w + round) % 6 {
					case 0: // a 1 µs deadline, usually expired before the walk starts
						ctx, cancelFn := context.WithTimeout(context.Background(), time.Microsecond)
						res, err := snap.Search(ctx, q)
						cancelFn()
						if err == nil && !reflect.DeepEqual(res, refs[i]) {
							t.Errorf("%+v under a 1µs deadline: %+v, want %+v", q, res, refs[i])
						} else if err != nil && !errors.Is(err, acq.ErrCanceled) {
							t.Errorf("%+v under a 1µs deadline: %v", q, err)
						}
					case 1: // a deadline that expires mid-walk
						res, err := snap.Search(&expiringCtx{Context: context.Background(), n: 3}, q)
						switch {
						case errors.Is(err, context.DeadlineExceeded):
							midWalk.Add(1)
						case err != nil:
							t.Errorf("%+v cut mid-walk: %v", q, err)
						case !reflect.DeepEqual(res, refs[i]):
							t.Errorf("%+v finishing before its deadline: %+v, want %+v", q, res, refs[i])
						}
					case 2, 3: // a one-unit budget, exact and approximate
						bq := q
						bq.Budget = 1
						if w%2 == 1 {
							bq.Epsilon = 0.1
						}
						res, err := snap.Search(context.Background(), bq)
						if err != nil {
							t.Errorf("%+v: %v", bq, err)
						} else if res.BudgetExhausted {
							exhausted.Add(1)
						}
					default:
						if res, err := snap.Search(context.Background(), q); err != nil || !reflect.DeepEqual(res, refs[i]) {
							t.Errorf("%+v concurrently: %+v (%v), want %+v", q, res, err, refs[i])
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	t.Logf("%d queries, %d mid-walk deadlines, %d exhausted budgets", len(qs), midWalk.Load(), exhausted.Load())
	if midWalk.Load() == 0 || exhausted.Load() == 0 {
		t.Fatalf("unwinds exercised: %d mid-walk deadlines, %d exhausted budgets; want both > 0", midWalk.Load(), exhausted.Load())
	}
	if n := acq.ScratchInUse(snap); n != 0 {
		t.Fatalf("%d pooled scratch spaces still handed out after every query returned", n)
	}
	for i, q := range qs {
		if res, err := snap.Search(context.Background(), q); err != nil || !reflect.DeepEqual(res, refs[i]) {
			t.Fatalf("%+v after the unwinds: %+v (%v), want %+v", q, res, err, refs[i])
		}
	}
}
