package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func(e *Engine) { order = append(order, e.Now()) })
	}
	e.Run()
	want := []Time{1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, order[i], want[i])
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO among same-time events)", i, got, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(10, func(e *Engine) {
		e.After(5, func(e *Engine) { fired = e.Now() })
	})
	e.Run()
	if fired != 15 {
		t.Fatalf("nested After fired at %v, want 15", fired)
	}
}

func TestAfterNegativeClampsToNow(t *testing.T) {
	e := NewEngine()
	var fired Time = -1
	e.At(10, func(e *Engine) {
		e.After(-3, func(e *Engine) { fired = e.Now() })
	})
	e.Run()
	if fired != 10 {
		t.Fatalf("negative After fired at %v, want 10", fired)
	}
}

func TestPastEventPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func(e *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling at t=5 while now=10 did not panic")
			}
		}()
		e.At(5, func(*Engine) {})
	})
	e.Run()
}

// NaN compares false against everything, so a "t < now" check lets it
// through; an event at NaN would then set the clock to NaN, and every
// later past-time check would pass too.
func TestNaNEventPanics(t *testing.T) {
	nan := math.NaN()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted NaN", name)
			}
		}()
		f()
	}
	e := NewEngine()
	mustPanic("At", func() { e.At(Time(nan), func(*Engine) {}) })
	mustPanic("After", func() { e.After(Duration(nan), func(*Engine) {}) })
	id := e.At(1, func(*Engine) {})
	mustPanic("RescheduleAfter", func() { e.RescheduleAfter(id, Duration(nan)) })
	if end := e.Run(); end != 1 {
		t.Fatalf("Run ended at %v, want 1", end)
	}
	// The clock is still sound: the past still panics.
	mustPanic("At(past)", func() { e.At(0.5, func(*Engine) {}) })
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(3, func(*Engine) { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFireReturnsFalse(t *testing.T) {
	e := NewEngine()
	id := e.At(1, func(*Engine) {})
	e.Run()
	if e.Cancel(id) {
		t.Fatal("Cancel returned true for an already-fired event")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var order []Time
	var ids []EventID
	for _, at := range []Time{1, 2, 3, 4, 5, 6, 7, 8} {
		at := at
		ids = append(ids, e.At(at, func(e *Engine) { order = append(order, e.Now()) }))
	}
	e.Cancel(ids[3]) // t=4
	e.Cancel(ids[6]) // t=7
	e.Run()
	want := []Time{1, 2, 3, 5, 6, 8}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func(e *Engine) {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	end := e.Run()
	if count != 4 {
		t.Fatalf("fired %d events after Stop, want 4", count)
	}
	if end != 4 {
		t.Fatalf("Run returned %v, want 4", end)
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending() = %d after Stop, want 6", e.Pending())
	}
}

func TestRunUntilDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func(e *Engine) { fired = append(fired, e.Now()) })
	}
	end := e.RunUntil(5.5)
	if len(fired) != 5 {
		t.Fatalf("fired %d events by deadline 5.5, want 5", len(fired))
	}
	if end != 5.5 {
		t.Fatalf("RunUntil returned %v, want 5.5", end)
	}
	// Resume to the end.
	end = e.Run()
	if len(fired) != 10 {
		t.Fatalf("fired %d events total, want 10", len(fired))
	}
	if end != 10 {
		t.Fatalf("final time %v, want 10", end)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	end := e.RunUntil(42)
	if end != 42 {
		t.Fatalf("RunUntil on empty queue returned %v, want 42", end)
	}
	if e.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", e.Now())
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, func(*Engine) { n++ })
	e.At(2, func(*Engine) { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 17; i++ {
		e.At(Time(i), func(*Engine) {})
	}
	e.Run()
	if e.Fired() != 17 {
		t.Fatalf("Fired() = %d, want 17", e.Fired())
	}
}

// Property: for any set of scheduled times, events fire in nondecreasing
// time order and all of them fire.
func TestPropertyTimeOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.At(at, func(e *Engine) { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// Same multiset of times.
		want := make([]Time, len(raw))
		for i, r := range raw {
			want[i] = Time(r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cascading events (each schedules the next) advance time
// monotonically and terminate.
func TestPropertyCascade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		steps := rng.Intn(200) + 1
		var last Time = -1
		var chain func(remaining int) Handler
		chain = func(remaining int) Handler {
			return func(e *Engine) {
				if e.Now() < last {
					t.Fatalf("time went backwards: %v -> %v", last, e.Now())
				}
				last = e.Now()
				if remaining > 0 {
					e.After(Duration(rng.Float64()), chain(remaining-1))
				}
			}
		}
		e.At(0, chain(steps))
		e.Run()
		if e.Pending() != 0 {
			t.Fatalf("cascade left %d pending events", e.Pending())
		}
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func(*Engine) {})
		}
		e.Run()
	}
}

type recordCB struct {
	got []any
	at  []Time
}

func (r *recordCB) OnEvent(e *Engine, arg any) {
	r.got = append(r.got, arg)
	r.at = append(r.at, e.Now())
}

func TestAfterCallDeliversArg(t *testing.T) {
	e := NewEngine()
	cb := &recordCB{}
	x, y := new(int), new(int)
	e.AfterCall(2, cb, x)
	e.AtCall(1, cb, y)
	e.Run()
	if len(cb.got) != 2 || cb.got[0] != y || cb.got[1] != x {
		t.Fatalf("callback args out of order: %v", cb.got)
	}
	if cb.at[0] != 1 || cb.at[1] != 2 {
		t.Fatalf("callback times = %v, want [1 2]", cb.at)
	}
}

func TestStaleEventIDCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	cb := &recordCB{}
	id := e.AfterCall(1, cb, nil)
	e.Run()
	// The fired event's struct is recycled; the next scheduled event may
	// reuse it. The stale ID must not cancel the new event.
	e.AfterCall(1, cb, nil)
	if e.Cancel(id) {
		t.Fatal("stale EventID cancelled a recycled event")
	}
	e.Run()
	if len(cb.got) != 2 {
		t.Fatalf("fired %d events, want 2", len(cb.got))
	}
}

func TestCancelledEventIsRecycled(t *testing.T) {
	e := NewEngine()
	cb := &recordCB{}
	id := e.AfterCall(5, cb, nil)
	if !e.Cancel(id) {
		t.Fatal("cancel failed")
	}
	if e.Cancel(id) {
		t.Fatal("double cancel succeeded")
	}
	e.AfterCall(1, cb, nil)
	e.Run()
	if len(cb.got) != 1 {
		t.Fatalf("fired %d events, want 1", len(cb.got))
	}
}

func TestAfterCallSteadyStateAllocationFree(t *testing.T) {
	e := NewEngine()
	cb := &recordCB{}
	arg := new(int)
	// Warm the freelist and the heap's capacity.
	for i := 0; i < 64; i++ {
		e.AfterCall(1, cb, arg)
	}
	e.Run()
	cb.got, cb.at = cb.got[:0], cb.at[:0]
	avg := testing.AllocsPerRun(200, func() {
		e.AfterCall(1, cb, arg)
		e.Run()
		cb.got, cb.at = cb.got[:0], cb.at[:0]
	})
	if avg != 0 {
		t.Fatalf("AfterCall+Run allocates %.1f objects/op, want 0", avg)
	}
}

func TestStaleIDNeverTouchesSlotReuse(t *testing.T) {
	e := NewEngine()
	cb := &recordCB{}
	fired := e.AfterCall(1, cb, nil)
	e.Run()
	cancelled := e.AfterCall(1, cb, nil)
	if !e.Cancel(cancelled) {
		t.Fatal("cancel of a pending event failed")
	}
	// Both stale IDs name the slot the next events reuse.
	a := e.AfterCall(3, cb, 1)
	b := e.AfterCall(4, cb, 2)
	for _, stale := range []EventID{fired, cancelled} {
		if e.Cancel(stale) {
			t.Fatalf("stale ID %+v cancelled a reused slot", stale)
		}
		if e.RescheduleAfter(stale, 0) {
			t.Fatalf("stale ID %+v rescheduled a reused slot", stale)
		}
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	cb.got, cb.at = nil, nil
	e.Run()
	if len(cb.got) != 2 || cb.got[0] != 1 || cb.got[1] != 2 || cb.at[0] != 4 || cb.at[1] != 5 {
		t.Fatalf("fired %v at %v, want [1 2] at [4 5]", cb.got, cb.at)
	}
	if e.Cancel(a) || e.RescheduleAfter(b, 1) {
		t.Fatal("IDs of fired events still matched")
	}
	if e.RescheduleAfter(EventID{}, 1) {
		t.Fatal("zero ID rescheduled an event")
	}
}

func TestRescheduleToSameTimeFiresLast(t *testing.T) {
	e := NewEngine()
	cb := &recordCB{}
	first := e.AtCall(5, cb, "first")
	e.AtCall(5, cb, "second")
	if !e.RescheduleAfter(first, 5) {
		t.Fatal("reschedule of a pending event failed")
	}
	e.Run()
	if len(cb.got) != 2 || cb.got[0] != "second" || cb.got[1] != "first" {
		t.Fatalf("fired %v, want [second first]: a rescheduled event queues behind its instant", cb.got)
	}
}

func TestRescheduleMovesEarlierAndLater(t *testing.T) {
	e := NewEngine()
	cb := &recordCB{}
	ids := make([]EventID, 6)
	for i := range ids {
		ids[i] = e.AtCall(Time(10+i), cb, i)
	}
	e.RescheduleAfter(ids[5], 1)  // to t=1
	e.RescheduleAfter(ids[0], 20) // to t=20
	e.RescheduleAfter(ids[3], -2) // clamps to t=0
	e.Run()
	want := []any{3, 5, 1, 2, 4, 0}
	wantAt := []Time{0, 1, 11, 12, 14, 20}
	for i := range want {
		if cb.got[i] != want[i] || cb.at[i] != wantAt[i] {
			t.Fatalf("fired %v at %v, want %v at %v", cb.got, cb.at, want, wantAt)
		}
	}
}

func TestReserveKeepsSchedulingAllocationFree(t *testing.T) {
	e := NewEngine()
	cb := &recordCB{got: make([]any, 0, 512), at: make([]Time, 0, 512)}
	arg := new(int)
	// AllocsPerRun calls f twice: a warm-up and the measured run.
	e.Reserve(512)
	avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < 256; i++ {
			e.AfterCall(Duration(i%7), cb, arg)
		}
	})
	if avg != 0 {
		t.Fatalf("scheduling 256 reserved events allocates %.1f objects, want 0", avg)
	}
	e.Run()
	if len(cb.got) != 512 {
		t.Fatalf("fired %d events, want 512", len(cb.got))
	}
}

// BenchmarkEngineReschedule keeps 4,096 events pending; each step moves
// 16 of them to new times (netsim's per-sweep completion updates), then
// fires the earliest, which schedules its own replacement.
func BenchmarkEngineReschedule(b *testing.B) {
	const pending, moves = 4096, 16
	e := NewEngine()
	r := &rescheduler{rng: rand.New(rand.NewSource(1)), ids: make([]EventID, pending), idx: make([]int, pending)}
	for i := range r.ids {
		r.idx[i] = i
		r.ids[i] = e.AfterCall(Duration(r.rng.Float64()), r, &r.idx[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m := 0; m < moves; m++ {
			e.RescheduleAfter(r.ids[r.rng.Intn(pending)], Duration(r.rng.Float64()))
		}
		e.Step()
	}
}

type rescheduler struct {
	rng *rand.Rand
	ids []EventID
	idx []int
}

func (r *rescheduler) OnEvent(e *Engine, arg any) {
	i := arg.(*int)
	r.ids[*i] = e.AfterCall(Duration(r.rng.Float64()), r, i)
}
