package netsim

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// TestFlowRecordLayout pins the hot record: at most 160 bytes, with every
// field the sweep loops read in its first 64-byte line.
func TestFlowRecordLayout(t *testing.T) {
	var f flow
	if s := unsafe.Sizeof(f); s > 160 {
		t.Fatalf("flow record is %d bytes, want at most 160", s)
	}
	for name, end := range map[string]uintptr{
		"rate":      unsafe.Offsetof(f.rate) + unsafe.Sizeof(f.rate),
		"visit":     unsafe.Offsetof(f.visit) + unsafe.Sizeof(f.visit),
		"dIdx":      unsafe.Offsetof(f.dIdx) + unsafe.Sizeof(f.dIdx),
		"state":     unsafe.Offsetof(f.state) + unsafe.Sizeof(f.state),
		"cap":       unsafe.Offsetof(f.cap) + unsafe.Sizeof(f.cap),
		"slots":     unsafe.Offsetof(f.slots) + unsafe.Sizeof(f.slots),
		"remaining": unsafe.Offsetof(f.remaining) + unsafe.Sizeof(f.remaining),
	} {
		if end > 64 {
			t.Errorf("flow.%s ends at byte %d, outside the first cache line", name, end)
		}
	}
}

// TestLinkSlotLayout pins a slot's record at 56 bytes: the active-flow
// list, BFS stamp, capacity, byte counter and waterfill index.
func TestLinkSlotLayout(t *testing.T) {
	if s := unsafe.Sizeof(linkSlot{}); s > 56 {
		t.Fatalf("link slot record is %d bytes, want at most 56", s)
	}
}

// TestSubmitAllocatesNoSlotRecords submits a 16,384-flow set, drawn as
// sim-mira draws one, after Reserve and with every route memoized:
// Submit builds no slot record, and beyond the slot lists' own 4 B per
// entry it allocates only the 4-byte slot -> link list, grown by append
// (under 24 B per slot over all its growth steps). The six per-slot
// arrays Submit grew before took about 240 B per slot.
func TestSubmitAllocatesNoSlotRecords(t *testing.T) {
	const n = 16384
	tor := torus.MustNew(torus.Shape{4, 4, 8, 8, 2})
	flows := drawSimFlows(1, tor, n)
	p := DefaultParams()
	net := NewNetwork(tor, p.LinkBandwidth)
	warm, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		warm.Submit(f)
	}
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	e.Reserve(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, f := range flows {
		e.Submit(f)
	}
	runtime.ReadMemStats(&after)
	if e.rec != nil {
		t.Fatalf("Submit built %d slot records before Run", len(e.rec))
	}
	slots := len(e.slotLink)
	beyond := float64(after.TotalAlloc-before.TotalAlloc) - 4*float64(e.slotsUsed)
	if perSlot := beyond / float64(slots); perSlot > 24 {
		t.Fatalf("Submit allocated %.1f B per slot beyond the slot lists (%d slots), want at most 24", perSlot, slots)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.rec) != slots || cap(e.rec) != slots {
		t.Fatalf("Run built %d records (capacity %d), want one per slot: %d", len(e.rec), cap(e.rec), slots)
	}
}

// TestLinkBytesZeroBeforeRun reads the byte counters of an engine whose
// flows are submitted but not run: every link reads zero, the links the
// flows will use included.
func TestLinkBytesZeroBeforeRun(t *testing.T) {
	e := newTestEngine(t, mira128(), DefaultParams())
	id := e.Submit(FlowSpec{Src: 0, Dst: 5, Bytes: 1 << 20})
	for l, b := range e.LinkBytes() {
		if b != 0 {
			t.Fatalf("LinkBytes()[%d] = %g before Run, want 0", l, b)
		}
	}
	route := e.FlowRouteLinks(id)
	if len(route) == 0 {
		t.Fatal("flow 0->5 has no route")
	}
	for _, l := range route {
		if b := e.LinkBytesOf(l); b != 0 {
			t.Fatalf("LinkBytesOf(%d) = %g before Run, want 0", l, b)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if b := e.LinkBytesOf(route[0]); b != 1<<20 {
		t.Fatalf("LinkBytesOf(%d) = %g after Run, want %d", route[0], b, 1<<20)
	}
}

// TestEngineHeapPerFlowPastMemoBound is TestEngineHeapPerFlow on a set
// of more distinct pairs than the route memo stores: 65,536 flows drawn
// as sim-mira draws them on 8,192 nodes (58,458 distinct pairs), each
// of 4 KiB so that transfers barely overlap and the run is short. The
// memo keeps 2^15 routes; a memo that kept them all, with per-slot
// arrays grown by a quarter, held 434 B per flow here; the bounded memo
// and the slot records hold 400 B.
func TestEngineHeapPerFlowPastMemoBound(t *testing.T) {
	if testing.Short() {
		t.Skip("65,536 flows; skipped in short mode")
	}
	const n = 65536
	tor := torus.MustNew(torus.Shape{8, 8, 8, 8, 2})
	flows := drawSimFlows(1, tor, n)
	for i := range flows {
		flows[i].Bytes = 4 << 10
	}
	p := DefaultParams()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	net := NewNetwork(tor, p.LinkBandwidth)
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	e.Reserve(len(flows))
	for _, f := range flows {
		e.Submit(f)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perFlow := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	runtime.KeepAlive(e)
	runtime.KeepAlive(flows)
	if done, _ := e.Outcomes(); done != n {
		t.Fatalf("%d of %d flows done", done, n)
	}
	if hits, misses, _ := net.RouteCache().Counts(); hits+misses != n {
		t.Fatalf("route memo counted %d hits and %d misses, want %d lookups", hits, misses, n)
	}
	if perFlow > 415 {
		t.Fatalf("engine holds %.0f B per flow, want at most 415", perFlow)
	}
}

// TestEngineHeapPerFlow pins what a flow costs the live heap: a seeded
// set of 16,384 flows drawn the way the sim-mira benchmark draws one
// (eight per node on 2,048 nodes), run to completion with the engine
// kept alive. The count covers the network and its route memo, the
// engine's slot records, the clock and the flow records. The 328-byte
// record that copied FlowSpec and FlowResult read 598 B per flow here;
// the 160-byte record with no side-table entry reads 438 B.
func TestEngineHeapPerFlow(t *testing.T) {
	const n = 16384
	tor := torus.MustNew(torus.Shape{4, 4, 8, 8, 2})
	flows := drawSimFlows(1, tor, n)
	p := DefaultParams()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := NewEngine(NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		t.Fatal(err)
	}
	e.Reserve(len(flows))
	for _, f := range flows {
		e.Submit(f)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perFlow := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	runtime.KeepAlive(e)
	runtime.KeepAlive(flows)
	if done, _ := e.Outcomes(); done != n {
		t.Fatalf("%d of %d flows done", done, n)
	}
	if perFlow > 520 {
		t.Fatalf("engine holds %.0f B per flow, want at most 520", perFlow)
	}
}

// TestSpecReturnsSubmittedFields checks that Spec rebuilds every field a
// flow was submitted with, the route as the caller's own slice
// (duplicate entry included) and the same callback.
func TestSpecReturnsSubmittedFields(t *testing.T) {
	e := newTestEngine(t, mira128(), DefaultParams())
	first := e.Submit(FlowSpec{Src: 0, Dst: 5, Bytes: 1 << 20})
	links := []int{3, 7, 3}
	deps := []FlowID{first}
	calls := 0
	onDone := func() { calls++ }
	want := FlowSpec{Src: 2, Dst: 9, Bytes: 4 << 20, Links: links, DependsOn: deps,
		ExtraDelay: 25e-6, Label: "leg2", OnComplete: onDone}
	id := e.Submit(want)
	got := e.Spec(id)
	if got.Src != want.Src || got.Dst != want.Dst || got.Bytes != want.Bytes ||
		got.ExtraDelay != want.ExtraDelay || got.Label != want.Label {
		t.Fatalf("Spec = %+v, want %+v", got, want)
	}
	if len(got.Links) != len(links) || &got.Links[0] != &links[0] {
		t.Fatalf("Spec.Links = %v, want the submitted slice %v", got.Links, links)
	}
	if len(got.DependsOn) != 1 || &got.DependsOn[0] != &deps[0] {
		t.Fatalf("Spec.DependsOn = %v, want the submitted slice %v", got.DependsOn, deps)
	}
	if reflect.ValueOf(got.OnComplete).Pointer() != reflect.ValueOf(onDone).Pointer() {
		t.Fatal("Spec.OnComplete is not the submitted callback")
	}
	if s := e.Spec(first); s.Links != nil || s.DependsOn != nil || s.Label != "" || s.OnComplete != nil {
		t.Fatalf("Spec of a plain flow = %+v, want no route, dependencies, label or callback", s)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("OnComplete ran %d times, want 1", calls)
	}
	if r := e.FlowRouteLinks(id); !slices.Equal(r, []int{3, 7}) {
		t.Fatalf("FlowRouteLinks = %v, want each link once: [3 7]", r)
	}
}

// TestResultAndRouteByOutcome checks Result and FlowRouteLinks for one
// flow of each fate: done, aborted by a link failure mid-transfer,
// aborted through its dependency, zero-byte, local copy, and never
// released (its dependency is still transferring when the clock stops).
func TestResultAndRouteByOutcome(t *testing.T) {
	p := DefaultParams()
	tor := mira128()
	e := newTestEngine(t, tor, p)
	e.BeginInteractive()
	route := func(src, dst torus.NodeID) []int { return e.Network().Route(src, dst).Links }

	done := e.Submit(FlowSpec{Src: 0, Dst: 5, Bytes: 1 << 20})
	cutRoute := route(10, 40)
	cut := e.Submit(FlowSpec{Src: 10, Dst: 40, Bytes: 64 << 20})
	dep := e.Submit(FlowSpec{Src: 40, Dst: 10, Bytes: 1 << 20, DependsOn: []FlowID{cut}})
	zero := e.Submit(FlowSpec{Src: 3, Dst: 17, Bytes: 0})
	local := e.Submit(FlowSpec{Src: 7, Dst: 7, Bytes: 1 << 20})
	long := e.Submit(FlowSpec{Src: 20, Dst: 60, Bytes: 1 << 40})
	pending := e.Submit(FlowSpec{Src: 60, Dst: 21, Bytes: 1 << 20, DependsOn: []FlowID{long}})
	failAt := sim.Time(p.SenderOverhead + 1e-3)
	e.FailLinkAt(cutRoute[1], failAt)
	// Step until the five short fates are settled; the long flow and its
	// dependent are still on the clock.
	for {
		if d, a := e.Outcomes(); d == 3 && a == 2 || !e.StepClock() {
			break
		}
	}

	// Done: the whole timeline, in order, and the bytes.
	r := e.Result(done)
	if !r.Done || r.Aborted || r.Bytes != 1<<20 || r.AbortTime != 0 ||
		!(r.Released == 0 && r.Activated == sim.Time(p.SenderOverhead) &&
			r.TransferEnd > r.Activated && r.Completed > r.TransferEnd) {
		t.Fatalf("done flow: %+v", r)
	}
	if got, want := e.FlowRouteLinks(done), route(0, 5); !slices.Equal(got, want) {
		t.Fatalf("done flow route %v, want %v", got, want)
	}
	// Aborted mid-transfer: started, never left the wire, no bytes.
	r = e.Result(cut)
	if want := (FlowResult{Activated: sim.Time(p.SenderOverhead), Aborted: true, AbortTime: failAt}); r != want {
		t.Fatalf("cut flow: %+v, want %+v", r, want)
	}
	if got := e.FlowRouteLinks(cut); !slices.Equal(got, cutRoute) {
		t.Fatalf("cut flow route %v, want %v", got, cutRoute)
	}
	// Aborted through its dependency: never released.
	if r, want := e.Result(dep), (FlowResult{Aborted: true, AbortTime: failAt}); r != want {
		t.Fatalf("dependent flow: %+v, want %+v", r, want)
	}
	if got, want := e.FlowRouteLinks(dep), route(40, 10); !slices.Equal(got, want) {
		t.Fatalf("dependent flow route %v, want %v", got, want)
	}
	// Zero-byte: the transfer ends as it starts; the receiver tail follows.
	act := sim.Time(p.SenderOverhead)
	hops := len(route(3, 17))
	if r, want := e.Result(zero), (FlowResult{Activated: act, TransferEnd: act,
		Completed: act + sim.Time(p.ReceiverOverhead+p.HopLatency*sim.Duration(hops)), Done: true}); r != want {
		t.Fatalf("zero-byte flow: %+v, want %+v", r, want)
	}
	// Local copy: no links, done at the local-copy rate.
	if r := e.Result(local); !r.Done || r.Bytes != 1<<20 ||
		r.TransferEnd-r.Activated != sim.Time(sim.Duration(float64(1<<20)/p.LocalCopyBandwidth)) {
		t.Fatalf("local copy: %+v", r)
	}
	if got := e.FlowRouteLinks(local); got != nil {
		t.Fatalf("local copy route %v, want nil", got)
	}
	// Never released: its dependency is still on the wire.
	if _, active := e.FlowRate(long); !active {
		t.Fatal("the long flow should still be transferring")
	}
	if r := e.Result(pending); r != (FlowResult{}) {
		t.Fatalf("unreleased flow: %+v, want the zero result", r)
	}
	if got, want := e.FlowRouteLinks(pending), route(60, 21); !slices.Equal(got, want) {
		t.Fatalf("unreleased flow route %v, want %v", got, want)
	}
}
