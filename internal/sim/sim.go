// Package sim provides a minimal deterministic discrete-event simulation
// engine. It is the clock substrate for the flow-level network simulator in
// package netsim.
//
// The engine maintains virtual time as a float64 number of seconds and a
// priority queue of scheduled events. Events scheduled for the same instant
// fire in FIFO order (scheduling order), which keeps runs deterministic.
package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Time is a point in virtual time, in seconds since the start of the run.
type Time float64

// Duration is a span of virtual time, in seconds.
type Duration float64

const (
	// Forever is a time later than any event the engine will ever fire.
	Forever Time = math.MaxFloat64
)

// Microseconds returns the duration expressed in microseconds.
func (d Duration) Microseconds() float64 { return float64(d) * 1e6 }

// Seconds returns the duration as a plain float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Handler is a callback run when an event fires. It receives the engine so
// it can schedule follow-up events.
type Handler func(*Engine)

// Callback is the allocation-free alternative to Handler: a single
// long-lived receiver implements OnEvent and the per-event state travels
// in arg (a pointer fits in an interface without heap allocation). Hot
// schedulers (netsim's per-flow timers) use AtCall/AfterCall with a
// Callback so steady-state event scheduling allocates nothing.
type Callback interface {
	OnEvent(e *Engine, arg any)
}

// handlerCall runs a Handler as a Callback. A func value fits in an
// interface without allocating, so At costs what AtCall does.
type handlerCall Handler

func (h handlerCall) OnEvent(e *Engine, _ any) { h(e) }

// entry is one pending event's place in the queue: its key and the slab
// slot holding its callback. It holds no pointers, so sifting it moves
// plain words (no write barriers) and the collector never scans the heap
// array.
type entry struct {
	at   Time
	seq  uint64 // tie-break: FIFO among same-time events
	slot int32
}

// before is the queue's strict order: time, then scheduling sequence.
// seq is unique, so the pop order of any event set is fully determined.
func before(a, b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// slot is an event's payload in the slab.
type slot struct {
	cb  Callback
	arg any
	// gen increments every time the slot is freed, so a stale EventID
	// cannot cancel or move the slot's next occupant.
	gen uint64
	// pos is the event's index in the heap; -1 while the slot is free.
	pos int32
}

// EventID identifies a scheduled event so it can be cancelled or
// rescheduled. The zero value is valid and never matches an event.
type EventID struct {
	ref int32 // slab slot + 1; 0 for the zero ID
	gen uint64
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	heap    []entry // binary min-heap under before
	slots   []slot  // event payloads, indexed by entry.slot
	free    []int32 // slots available for reuse
	nextSeq uint64
	fired   uint64
	running bool
	stopped bool
}

// NewEngine returns an engine with virtual time set to zero and an empty
// event queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled and not yet fired.
func (e *Engine) Pending() int { return len(e.heap) }

// Reserve pre-sizes the queue and the slab for n further pending events,
// so scheduling them grows nothing.
func (e *Engine) Reserve(n int) {
	e.heap = slices.Grow(e.heap, n)
	if need := n - len(e.free); need > 0 {
		e.slots = slices.Grow(e.slots, need)
	}
	// The freelist never holds more than every slot.
	e.free = slices.Grow(e.free, cap(e.slots)-len(e.free))
}

// ErrPastEvent is returned by At when an event is scheduled before the
// current virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// At schedules fn to run at absolute time t. Scheduling an event in the
// past, or at NaN, panics: virtual time is monotone and such a bug must
// not pass silently.
func (e *Engine) At(t Time, fn Handler) EventID {
	return e.AtCall(t, handlerCall(fn), nil)
}

// AtCall schedules cb.OnEvent(e, arg) at absolute time t. Unlike At it
// captures no closure: with a long-lived cb and a pointer-typed arg the
// call allocates nothing once the engine's slab is warm.
func (e *Engine) AtCall(t Time, cb Callback, arg any) EventID {
	// Written so that NaN fails too: t < e.now is false for NaN.
	if !(t >= e.now) {
		panic(fmt.Sprintf("%v: at=%g now=%g", ErrPastEvent, float64(t), float64(e.now)))
	}
	var s int32
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		s = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	sl := &e.slots[s]
	sl.cb, sl.arg = cb, arg
	e.heap = append(e.heap, entry{at: t, seq: e.nextSeq, slot: s})
	e.nextSeq++
	e.up(len(e.heap) - 1)
	return EventID{ref: s + 1, gen: sl.gen}
}

// release frees a popped or cancelled event's slot. Bumping gen
// invalidates every EventID handed out for the finished event.
func (e *Engine) release(s int32) {
	sl := &e.slots[s]
	sl.gen++
	sl.pos = -1
	sl.cb, sl.arg = nil, nil
	e.free = append(e.free, s)
}

// After schedules fn to run d seconds from now. Negative durations are
// clamped to zero so rounding error in computed delays cannot panic.
func (e *Engine) After(d Duration, fn Handler) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+Time(d), fn)
}

// AfterCall is AtCall relative to the current time; see AtCall for the
// allocation contract.
func (e *Engine) AfterCall(d Duration, cb Callback, arg any) EventID {
	if d < 0 {
		d = 0
	}
	return e.AtCall(e.now+Time(d), cb, arg)
}

// pending returns the heap index of the event id names, or -1 when it
// already fired or was cancelled.
func (e *Engine) pending(id EventID) int {
	if id.ref <= 0 || int(id.ref) > len(e.slots) {
		return -1
	}
	sl := &e.slots[id.ref-1]
	if sl.gen != id.gen {
		return -1
	}
	return int(sl.pos)
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending (false if it already fired or was cancelled earlier).
func (e *Engine) Cancel(id EventID) bool {
	i := e.pending(id)
	if i < 0 {
		return false
	}
	e.remove(i)
	e.release(id.ref - 1)
	return true
}

// RescheduleAfter moves a pending event to d seconds from now (negative d
// clamps to zero, NaN panics as in AtCall), keeping its callback and its
// ID. The event takes a fresh sequence number, exactly as Cancel followed
// by AfterCall would give it, so it fires after every event already
// scheduled for the same instant and the run's event order is unchanged.
// It reports false, and changes nothing, when the event already fired or
// was cancelled.
func (e *Engine) RescheduleAfter(id EventID, d Duration) bool {
	i := e.pending(id)
	if i < 0 {
		return false
	}
	if !(d > 0) { // d <= 0, or NaN
		if math.IsNaN(float64(d)) {
			panic(fmt.Sprintf("%v: rescheduled by NaN at now=%g", ErrPastEvent, float64(e.now)))
		}
		d = 0
	}
	e.heap[i].at = e.now + Time(d)
	e.heap[i].seq = e.nextSeq
	e.nextSeq++
	if !e.down(i) {
		e.up(i)
	}
	return true
}

// up sifts the entry at i toward the root.
func (e *Engine) up(i int) {
	h := e.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(x, h[p]) {
			break
		}
		h[i] = h[p]
		e.slots[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = x
	e.slots[x.slot].pos = int32(i)
}

// down sifts the entry at i toward the leaves and reports whether it
// moved.
func (e *Engine) down(i0 int) bool {
	h := e.heap
	n := len(h)
	i := i0
	x := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], x) {
			break
		}
		h[i] = h[c]
		e.slots[h[i].slot].pos = int32(i)
		i = c
	}
	h[i] = x
	e.slots[x.slot].pos = int32(i)
	return i > i0
}

// remove deletes the entry at heap index i and returns it.
func (e *Engine) remove(i int) entry {
	last := len(e.heap) - 1
	x := e.heap[i]
	e.heap[i] = e.heap[last]
	e.heap = e.heap[:last]
	if i < last && !e.down(i) {
		e.up(i)
	}
	return x
}

// Stop makes Run return after the currently executing event handler
// finishes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the queue drains or Stop is
// called. It returns the final virtual time.
func (e *Engine) Run() Time {
	return e.RunUntil(Forever)
}

// RunUntil executes events in time order until the queue drains, Stop is
// called, or the next event lies strictly after deadline. If the run halts
// at the deadline with events still pending, virtual time is advanced to
// the deadline. It returns the final virtual time.
func (e *Engine) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: Run re-entered from an event handler")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	for len(e.heap) > 0 && !e.stopped {
		if e.heap[0].at > deadline {
			e.now = deadline
			return e.now
		}
		e.fireNext()
	}
	if deadline != Forever && e.now < deadline && len(e.heap) == 0 {
		e.now = deadline
	}
	return e.now
}

// fireNext pops the earliest event and runs it. The slot is freed before
// the callback runs, so the handler can reuse it for a follow-up event.
func (e *Engine) fireNext() {
	x := e.remove(0)
	e.now = x.at
	e.fired++
	sl := &e.slots[x.slot]
	cb, arg := sl.cb, sl.arg
	e.release(x.slot)
	cb.OnEvent(e, arg)
}

// Step fires exactly one event if any is pending and reports whether one
// fired.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	e.fireNext()
	return true
}
