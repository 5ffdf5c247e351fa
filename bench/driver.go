package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bgqflow/internal/obs"
)

// The load driver. loadgen.Run times each request from its send time
// and starts one goroutine per tick, so a stall hides the delay it
// imposes on later requests and in-flight work is unbounded. This
// driver keeps a fixed pool of workers (at most nproc requests in
// flight) and, in the open loop, times every request from the instant
// its schedule made it due: requests that come due while the workers
// are busy wait, and that wait is part of their latency.

// opKind says which sample an operation's latency joins.
type opKind int8

const (
	opPlan opKind = iota
	opFault
)

// outcome is what one operation reports to the driver. end is when its
// response was decoded; verification done after that is not timed.
type outcome struct {
	kind opKind
	end  time.Time
	err  error
}

// opFunc runs operation i of a workload's stream.
type opFunc func(ctx context.Context, i int) outcome

// deadline is the latency past which a request counts as failed.
const deadline = time.Second

// maxErrs bounds the failure messages a phase keeps for the report.
const maxErrs = 8

// phase holds one load phase's samples.
type phase struct {
	plans       hist            // successful plan latencies
	faults      []time.Duration // successful fault acks, from send
	lags        hist            // open loop: send time minus due time
	attempted   int
	failed      int
	errs        []string
	elapsed     time.Duration
	maxInFlight int
	next        int // first op index after this phase
}

// tally is one worker's share of a phase; workers never share one.
type tally struct {
	plans, lags       hist
	faults            []time.Duration
	attempted, failed int
	errs              []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < maxErrs {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) record(o outcome, sent, due time.Time) {
	t.attempted++
	if o.err != nil {
		t.fail(o.err)
		return
	}
	if o.kind == opFault {
		t.faults = append(t.faults, o.end.Sub(sent))
		return
	}
	lat := o.end.Sub(due)
	if lat > deadline {
		t.fail(fmt.Errorf("plan answered %v after it was due, past the %v deadline", lat, deadline))
		return
	}
	t.plans.add(lat)
}

// inflight tracks the number of operations in progress and its peak.
type inflight struct{ cur, peak atomic.Int64 }

func (f *inflight) enter() {
	c := f.cur.Add(1)
	for {
		p := f.peak.Load()
		if c <= p || f.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

func (f *inflight) leave() { f.cur.Add(-1) }

func merge(ts []tally, fl *inflight, elapsed time.Duration, next int) *phase {
	p := &phase{elapsed: elapsed, maxInFlight: int(fl.peak.Load()), next: next}
	for i := range ts {
		t := &ts[i]
		p.plans.merge(&t.plans)
		p.lags.merge(&t.lags)
		p.faults = append(p.faults, t.faults...)
		p.attempted += t.attempted
		p.failed += t.failed
		for _, e := range t.errs {
			if len(p.errs) < maxErrs {
				p.errs = append(p.errs, e)
			}
		}
	}
	return p
}

// openLoop issues ops first, first+1, ... on a fixed schedule of rate
// per second for dur, from workers goroutines. Every op due inside the
// window is issued; one already a deadline late when a worker frees up
// counts as failed without being sent, which bounds the overrun. A
// non-nil rec gets one span per op, from its due time to its answer.
func openLoop(ctx context.Context, rate float64, dur time.Duration, workers, first int, do opFunc, rec *obs.WallRecorder) (*phase, error) {
	n := int(rate * dur.Seconds())
	waiters := make([]*waiter, workers)
	for w := range waiters {
		wt, err := newWaiter()
		if err != nil {
			for _, prev := range waiters[:w] {
				prev.close()
			}
			return nil, err
		}
		waiters[w] = wt
	}
	ctx, cancel := context.WithTimeout(ctx, dur+2*deadline)
	defer cancel()
	var (
		next atomic.Int64
		fl   inflight
		wg   sync.WaitGroup
	)
	ts := make([]tally, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(t *tally, wt *waiter) {
			defer wg.Done()
			defer wt.close()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if err := wt.wait(time.Until(due)); err != nil {
					t.fail(err)
				}
				sent := time.Now()
				t.lags.add(sent.Sub(due))
				if sent.Sub(due) > deadline {
					t.attempted++
					t.fail(fmt.Errorf("op %d was %v late when a worker freed up", first+k, sent.Sub(due)))
					continue
				}
				fl.enter()
				o := do(ctx, first+k)
				fl.leave()
				t.record(o, sent, due)
				if rec != nil {
					track := "client/plan"
					if o.kind == opFault {
						track = "client/fault"
					}
					rec.Span("", track, fmt.Sprintf("op %d", first+k), due, o.end)
				}
			}
		}(&ts[w], waiters[w])
	}
	wg.Wait()
	return merge(ts, &fl, time.Since(start), first+n), nil
}

// closedLoop keeps workers goroutines each issuing its next op as soon
// as the previous one answers, for dur.
func closedLoop(ctx context.Context, dur time.Duration, workers, first int, do opFunc) *phase {
	ctx, cancel := context.WithTimeout(ctx, dur+2*deadline)
	defer cancel()
	var (
		next atomic.Int64
		fl   inflight
		wg   sync.WaitGroup
	)
	ts := make([]tally, workers)
	start := time.Now()
	stop := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for time.Now().Before(stop) {
				k := int(next.Add(1) - 1)
				sent := time.Now()
				fl.enter()
				o := do(ctx, first+k)
				fl.leave()
				t.record(o, sent, sent)
			}
		}(&ts[w])
	}
	wg.Wait()
	return merge(ts, &fl, time.Since(start), first+int(next.Load()))
}
