package mpisim

import (
	"fmt"
	"math"
	"sync"

	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
)

// Runtime executes an SPMD program on the simulated machine: one
// goroutine per rank, MPI-shaped blocking operations (Put, Send/Recv,
// Barrier, Compute), and virtual time that advances only when every
// running rank is blocked — a conservative parallel-discrete-event
// scheme. It is the imperative counterpart of the plan-based interface:
// rank programs read like MPI code and their communication contends on
// the simulated torus exactly like planned flows do.
type Runtime struct {
	job  *Job
	e    *netsim.Engine
	coll *CollectiveModel

	mu          sync.Mutex
	blocked     int
	finished    int
	wokenPend   int // channels closed whose waiters have not resumed yet
	err         error
	waiters     map[*waiter]struct{}
	mail        map[mailKey][]int64
	recvWaiters map[mailKey][]*recvWait
	barWaiting  int
	barDones    []func()
}

type waiter struct {
	ch    chan struct{}
	fired bool
}

type mailKey struct{ src, dst int }

type recvWait struct {
	bytes *int64
	done  func()
}

// NewRuntime builds a runtime over a fresh interactive engine.
func NewRuntime(job *Job, net *netsim.Network, p netsim.Params) (*Runtime, error) {
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		return nil, err
	}
	e.BeginInteractive()
	return &Runtime{
		job:         job,
		e:           e,
		coll:        NewCollectiveModel(job, p),
		waiters:     make(map[*waiter]struct{}),
		mail:        make(map[mailKey][]int64),
		recvWaiters: make(map[mailKey][]*recvWait),
	}, nil
}

// Engine exposes the underlying engine (e.g. for LinkBytes after Run).
func (rt *Runtime) Engine() *netsim.Engine { return rt.e }

// Rank is the per-goroutine handle an SPMD program runs against.
type Rank struct {
	rt *Runtime
	id int
}

// Run executes program once per rank and returns the virtual time at
// which the last rank finished. A communication deadlock (every rank
// blocked, no event pending) aborts the run with an error, which every
// blocked operation also returns.
func (rt *Runtime) Run(program func(*Rank) error) (sim.Duration, error) {
	n := rt.job.NumRanks()
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(r int) {
			defer wg.Done()
			errs[r] = program(&Rank{rt: rt, id: r})
			rt.finishRank()
		}(r)
	}
	wg.Wait()
	rt.mu.Lock()
	err := rt.err
	rt.mu.Unlock()
	if err == nil {
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	return sim.Duration(rt.e.Now()), err
}

func (rt *Runtime) finishRank() {
	rt.mu.Lock()
	rt.finished++
	rt.maybeAdvanceLocked()
	rt.mu.Unlock()
}

// runnable reports ranks that have not finished their program.
func (rt *Runtime) runnable() int { return rt.job.NumRanks() - rt.finished }

// maybeAdvanceLocked fires engine events while every runnable rank is
// blocked and nobody has been woken; it detects true deadlock.
func (rt *Runtime) maybeAdvanceLocked() {
	for rt.err == nil && rt.wokenPend == 0 && rt.blocked > 0 && rt.blocked == rt.runnable() {
		if !rt.e.StepClock() {
			rt.err = fmt.Errorf("mpisim: deadlock: %d ranks blocked with no pending events", rt.blocked)
			for w := range rt.waiters {
				close(w.ch)
				delete(rt.waiters, w)
			}
			return
		}
	}
}

// await blocks the calling rank until the completion callback handed to
// setup fires. setup runs under the runtime lock and must not block.
func (rt *Runtime) await(setup func(done func())) error {
	rt.mu.Lock()
	if rt.err != nil {
		rt.mu.Unlock()
		return rt.err
	}
	w := &waiter{ch: make(chan struct{})}
	rt.waiters[w] = struct{}{}
	done := func() {
		if w.fired {
			return
		}
		if _, ok := rt.waiters[w]; !ok {
			return
		}
		w.fired = true
		rt.wokenPend++
		delete(rt.waiters, w)
		close(w.ch)
	}
	setup(done)
	rt.blocked++
	rt.maybeAdvanceLocked()
	rt.mu.Unlock()
	<-w.ch
	rt.mu.Lock()
	rt.blocked--
	if w.fired {
		rt.wokenPend--
	}
	err := rt.err
	rt.mu.Unlock()
	return err
}

// ID returns the world rank.
func (r *Rank) ID() int { return r.id }

// Size returns the job size.
func (r *Rank) Size() int { return r.rt.job.NumRanks() }

// Now returns the current virtual time. Exact at operation boundaries.
func (r *Rank) Now() sim.Time {
	r.rt.mu.Lock()
	defer r.rt.mu.Unlock()
	return r.rt.e.Now()
}

// Compute advances the rank's virtual time by d (a compute phase).
func (r *Rank) Compute(d sim.Duration) error {
	if !(d >= 0 && d <= math.MaxFloat64) {
		return fmt.Errorf("mpisim: compute time %g must be finite and >= 0", float64(d))
	}
	return r.rt.await(func(done func()) {
		r.rt.e.ScheduleAfter(d, done)
	})
}

// Put moves bytes to dst's node over the torus (one-sided RDMA) and
// returns when the transfer has fully landed.
func (r *Rank) Put(dst int, bytes int64) error {
	if dst < 0 || dst >= r.rt.job.NumRanks() {
		return fmt.Errorf("mpisim: Put to unknown rank %d", dst)
	}
	if bytes < 0 {
		return fmt.Errorf("mpisim: negative Put size")
	}
	return r.rt.await(func(done func()) {
		r.rt.e.Submit(netsim.FlowSpec{
			Src:        r.rt.job.NodeOf(r.id),
			Dst:        r.rt.job.NodeOf(dst),
			Bytes:      bytes,
			Label:      fmt.Sprintf("put/%d->%d", r.id, dst),
			OnComplete: done,
		})
	})
}

// Send transfers bytes to dst and deposits the message for a matching
// Recv. It returns when the data has landed at the destination node.
func (r *Rank) Send(dst int, bytes int64) error {
	if dst < 0 || dst >= r.rt.job.NumRanks() {
		return fmt.Errorf("mpisim: Send to unknown rank %d", dst)
	}
	if bytes < 0 {
		return fmt.Errorf("mpisim: negative Send size")
	}
	rt := r.rt
	key := mailKey{src: r.id, dst: dst}
	return rt.await(func(done func()) {
		rt.e.Submit(netsim.FlowSpec{
			Src:   rt.job.NodeOf(r.id),
			Dst:   rt.job.NodeOf(dst),
			Bytes: bytes,
			Label: fmt.Sprintf("send/%d->%d", r.id, dst),
			OnComplete: func() {
				// Deliver: hand to a waiting Recv or queue in the mailbox.
				if q := rt.recvWaiters[key]; len(q) > 0 {
					rw := q[0]
					rt.recvWaiters[key] = q[1:]
					*rw.bytes = bytes
					rw.done()
				} else {
					rt.mail[key] = append(rt.mail[key], bytes)
				}
				done()
			},
		})
	})
}

// Recv blocks until a message from src (sent with Send) has arrived and
// returns its size. Messages from one sender are delivered in order.
func (r *Rank) Recv(src int) (int64, error) {
	if src < 0 || src >= r.rt.job.NumRanks() {
		return 0, fmt.Errorf("mpisim: Recv from unknown rank %d", src)
	}
	rt := r.rt
	key := mailKey{src: src, dst: r.id}
	var bytes int64
	err := rt.await(func(done func()) {
		if q := rt.mail[key]; len(q) > 0 {
			bytes = q[0]
			rt.mail[key] = q[1:]
			done()
			return
		}
		rt.recvWaiters[key] = append(rt.recvWaiters[key], &recvWait{bytes: &bytes, done: done})
	})
	return bytes, err
}

// Barrier blocks until every rank has entered it, then releases all of
// them after the collective's priced latency.
func (r *Rank) Barrier() error {
	rt := r.rt
	return rt.await(func(done func()) {
		rt.barWaiting++
		rt.barDones = append(rt.barDones, done)
		if rt.barWaiting == rt.runnable() {
			dones := rt.barDones
			rt.barWaiting = 0
			rt.barDones = nil
			delay := rt.coll.BarrierTime(rt.job.NumRanks())
			rt.e.ScheduleAfter(delay, func() {
				for _, d := range dones {
					d()
				}
			})
		}
	})
}
