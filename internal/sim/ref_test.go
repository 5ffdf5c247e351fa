package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEngine is the event queue the engine replaced: a container/heap of
// *refEvent, kept as the oracle for the differential test below.
// Rescheduling is Cancel followed by AfterCall, which is what netsim did
// before RescheduleAfter existed.
type refEngine struct {
	now     Time
	queue   refQueue
	nextSeq uint64
	fired   uint64
	stopped bool
}

type refEvent struct {
	at    Time
	seq   uint64
	fn    func(*refEngine)
	index int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

func (e *refEngine) at(t Time, fn func(*refEngine)) *refEvent {
	if t < e.now {
		panic("ref: event in the past")
	}
	ev := &refEvent{at: t, seq: e.nextSeq, fn: fn}
	e.nextSeq++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) after(d Duration, fn func(*refEngine)) *refEvent {
	if d < 0 {
		d = 0
	}
	return e.at(e.now+Time(d), fn)
}

func (e *refEngine) cancel(ev *refEvent) bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	heap.Remove(&e.queue, ev.index)
	return true
}

// reschedule returns the event's new identity, or nil when ev was not
// pending.
func (e *refEngine) reschedule(ev *refEvent, d Duration) *refEvent {
	if !e.cancel(ev) {
		return nil
	}
	return e.after(d, ev.fn)
}

func (e *refEngine) fireNext() {
	ev := heap.Pop(&e.queue).(*refEvent)
	e.now = ev.at
	e.fired++
	ev.fn(e)
}

func (e *refEngine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.fireNext()
	return true
}

func (e *refEngine) runUntil(deadline Time) Time {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > deadline {
			e.now = deadline
			return e.now
		}
		e.fireNext()
	}
	if deadline != Forever && e.now < deadline && len(e.queue) == 0 {
		e.now = deadline
	}
	return e.now
}

// diffHarness drives the engine and the reference with one operation
// stream. Event k (a label) records itself when it fires; labels divisible
// by 5 schedule one follow-up (label k+1) and labels divisible by 7 stop
// the run, both decided by the label so the two engines stay in lockstep.
type diffHarness struct {
	e        *Engine
	r        *refEngine
	ids      []EventID
	refs     []*refEvent
	got, ref []int
}

// OnEvent makes the harness the Callback of AtCall events; arg is the
// event's label.
func (h *diffHarness) OnEvent(e *Engine, arg any) { h.fireE(e, *arg.(*int)) }

func (h *diffHarness) fireE(e *Engine, k int) {
	h.got = append(h.got, k)
	if k%5 == 0 {
		h.ids = append(h.ids, e.After(Duration(k%3), func(e *Engine) { h.fireE(e, k+1) }))
	}
	if k%7 == 0 {
		e.Stop()
	}
}

func (h *diffHarness) fireR(r *refEngine, k int) {
	h.ref = append(h.ref, k)
	if k%5 == 0 {
		h.refs = append(h.refs, r.after(Duration(k%3), func(r *refEngine) { h.fireR(r, k+1) }))
	}
	if k%7 == 0 {
		r.stopped = true
	}
}

func (h *diffHarness) schedule(t Time, k int, call bool) {
	if call {
		h.ids = append(h.ids, h.e.AtCall(t, h, &k))
	} else {
		h.ids = append(h.ids, h.e.At(t, func(e *Engine) { h.fireE(e, k) }))
	}
	h.refs = append(h.refs, h.r.at(t, func(r *refEngine) { h.fireR(r, k) }))
}

// TestEngineMatchesReferenceQueue is the differential test: 10,000 seeded
// operation streams with many equal times must fire the same labels in
// the same order on both queues, with equal Now, Fired and Pending after
// every operation.
func TestEngineMatchesReferenceQueue(t *testing.T) {
	seeds := 10000
	if testing.Short() {
		seeds = 1000
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		h := &diffHarness{e: NewEngine(), r: &refEngine{}}
		label := 0
		ops := 20 + rng.Intn(120)
		for op := 0; op < ops; op++ {
			var okE, okR bool
			var what string
			switch c := rng.Intn(16); {
			case c < 5:
				what = "schedule"
				h.schedule(h.e.Now()+Time(rng.Intn(4)), label, c%2 == 0)
				label++
			case c < 7:
				what = "cancel"
				if len(h.ids) > 0 {
					i := rng.Intn(len(h.ids))
					okE, okR = h.e.Cancel(h.ids[i]), h.r.cancel(h.refs[i])
				}
			case c < 11:
				what = "reschedule"
				if len(h.ids) > 0 {
					i := rng.Intn(len(h.ids))
					d := Duration(rng.Intn(4) - 1)
					okE = h.e.RescheduleAfter(h.ids[i], d)
					if nr := h.r.reschedule(h.refs[i], d); nr != nil {
						okR = true
						h.refs[i] = nr
					}
				}
			case c < 13:
				what = "step"
				okE, okR = h.e.Step(), h.r.step()
			case c < 15:
				what = "rununtil"
				d := h.e.Now() + Time(rng.Intn(3))
				okE, okR = true, h.e.RunUntil(d) == h.r.runUntil(d)
			default:
				what = "stop"
				h.e.Stop()
				h.r.stopped = true
			}
			if okE != okR {
				t.Fatalf("seed %d op %d (%s): engine reported %v, reference %v", seed, op, what, okE, okR)
			}
			if h.e.Now() != h.r.now || h.e.Fired() != h.r.fired || h.e.Pending() != len(h.r.queue) {
				t.Fatalf("seed %d op %d (%s): now/fired/pending %v/%d/%d, reference %v/%d/%d", seed, op, what,
					h.e.Now(), h.e.Fired(), h.e.Pending(), h.r.now, h.r.fired, len(h.r.queue))
			}
			if len(h.got) != len(h.ref) {
				t.Fatalf("seed %d op %d (%s): fired %v, reference %v", seed, op, what, h.got, h.ref)
			}
		}
		h.e.Run()
		h.r.runUntil(Forever)
		for len(h.r.queue) > 0 { // runs stopped by a label divisible by 7
			h.e.Run()
			h.r.runUntil(Forever)
		}
		if h.e.Pending() != 0 {
			t.Fatalf("seed %d: engine left %d events after the reference drained", seed, h.e.Pending())
		}
		for i := range h.ref {
			if i >= len(h.got) || h.got[i] != h.ref[i] {
				t.Fatalf("seed %d: fired %v, reference %v", seed, h.got, h.ref)
			}
		}
		if len(h.got) != len(h.ref) {
			t.Fatalf("seed %d: fired %v, reference %v", seed, h.got, h.ref)
		}
	}
}
