package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"bgqflow/internal/scenario"
)

func fl(id int) scenario.FailLink {
	return scenario.FailLink{Node: id, Dim: id % 5, Dir: 1}
}

func TestVectorStringRoundTrip(t *testing.T) {
	cases := []Vector{
		{},
		{"a": 1},
		{"b": 2, "a": 7, "z": 1},
	}
	for _, v := range cases {
		s := v.String()
		back, err := ParseVector(s)
		if err != nil {
			t.Fatalf("ParseVector(%q): %v", s, err)
		}
		if !back.Equal(v) {
			t.Fatalf("round trip %v -> %q -> %v", v, s, back)
		}
	}
	if s := (Vector{"b": 2, "a": 7}).String(); s != "a:7,b:2" {
		t.Fatalf("canonical form = %q, want sorted by origin", s)
	}
	if _, err := ParseVector("nocolon"); err == nil {
		t.Fatal("ParseVector accepted a malformed entry")
	}
	if _, err := ParseVector("a:xyz"); err == nil {
		t.Fatal("ParseVector accepted a non-numeric seq")
	}
}

func TestVectorDominatesMerge(t *testing.T) {
	a := Vector{"x": 3, "y": 1}
	b := Vector{"x": 2}
	if !a.Dominates(b) {
		t.Fatal("a should dominate b")
	}
	if b.Dominates(a) {
		t.Fatal("b should not dominate a")
	}
	c := Vector{"x": 1, "z": 5}
	if a.Dominates(c) || c.Dominates(a) {
		t.Fatal("a and c are concurrent, neither should dominate")
	}
	b.Merge(a)
	b.Merge(c)
	want := Vector{"x": 3, "y": 1, "z": 5}
	if !b.Equal(want) {
		t.Fatalf("merge = %v, want %v", b, want)
	}
	if !(Vector{}).Dominates(Vector{}) {
		t.Fatal("empty must dominate empty")
	}
}

func TestLogOriginateAndApplyIdempotent(t *testing.T) {
	l := NewLog()
	ev1 := l.Originate("a", []scenario.FailLink{fl(1)}, false)
	ev2 := l.Originate("a", []scenario.FailLink{fl(2)}, false)
	if ev1.Seq != 1 || ev2.Seq != 2 {
		t.Fatalf("seqs = %d,%d want 1,2", ev1.Seq, ev2.Seq)
	}
	if ev2.LT <= ev1.LT {
		t.Fatalf("LT not monotone: %d then %d", ev1.LT, ev2.LT)
	}
	if got := l.Digest(); !got.Equal(Vector{"a": 2}) {
		t.Fatalf("digest = %v", got)
	}
	// Re-applying our own events changes nothing.
	if newly := l.Apply(ev1, ev2); len(newly) != 0 {
		t.Fatalf("idempotent apply returned %d new events", len(newly))
	}
	if l.EventsApplied() != 2 || l.Version() != 2 {
		t.Fatalf("events=%d version=%d", l.EventsApplied(), l.Version())
	}
	want := []scenario.FailLink{fl(1), fl(2)}
	if got := l.FaultSet(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fault set = %v, want %v", got, want)
	}
}

func TestLogGapBuffering(t *testing.T) {
	src := NewLog()
	var evs []Event
	for i := 1; i <= 4; i++ {
		evs = append(evs, src.Originate("a", []scenario.FailLink{fl(i)}, false))
	}
	dst := NewLog()
	// Deliver seq 3 first: nothing applies (gap at 1..2).
	if newly := dst.Apply(evs[2]); len(newly) != 0 {
		t.Fatalf("gap event applied early: %v", newly)
	}
	if dst.EventsApplied() != 0 {
		t.Fatal("log applied past a gap")
	}
	// Deliver 1: applies 1 only.
	if newly := dst.Apply(evs[0]); len(newly) != 1 || newly[0].Seq != 1 {
		t.Fatalf("apply(1) = %v", newly)
	}
	// Deliver 2: drains the buffered 3 as well.
	newly := dst.Apply(evs[1])
	if len(newly) != 2 || newly[0].Seq != 2 || newly[1].Seq != 3 {
		t.Fatalf("apply(2) should drain 2,3; got %v", newly)
	}
	if newly := dst.Apply(evs[3]); len(newly) != 1 {
		t.Fatalf("apply(4) = %v", newly)
	}
	if !dst.Digest().Equal(src.Digest()) {
		t.Fatalf("digest %v != %v", dst.Digest(), src.Digest())
	}
	if !reflect.DeepEqual(dst.FaultSet(), src.FaultSet()) {
		t.Fatal("fault sets diverge after gap-buffered delivery")
	}
}

// TestLogConvergenceUnderPermutedDelivery is the heart of the epoch
// design: any two replicas that apply the same event set hold the same
// fault set, no matter the delivery order — including Clear events,
// where replay order would otherwise matter enormously.
func TestLogConvergenceUnderPermutedDelivery(t *testing.T) {
	// Three origins, interleaved adds and a clear, stamped via real logs
	// gossiping so LTs are causally meaningful.
	a, b, c := NewLog(), NewLog(), NewLog()
	var all []Event
	step := func(l *Log, links []scenario.FailLink, clear bool, origin string) {
		// Simulate "applied everything so far" before originating, as a
		// replica that honors min-vector ordering would.
		l.Apply(all...)
		all = append(all, l.Originate(origin, links, clear))
	}
	step(a, []scenario.FailLink{fl(1)}, false, "a")
	step(b, []scenario.FailLink{fl(2), fl(3)}, false, "b")
	step(c, nil, true, "c") // clear
	step(a, []scenario.FailLink{fl(4)}, false, "a")
	step(b, []scenario.FailLink{fl(5)}, false, "b")

	ref := NewLog()
	ref.Apply(all...)
	want := ref.FaultSet()
	if len(want) == 0 {
		t.Fatal("reference fault set empty; test is vacuous")
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(all))
		l := NewLog()
		for _, i := range perm {
			l.Apply(all[i])
		}
		if !l.Digest().Equal(ref.Digest()) {
			t.Fatalf("trial %d: digest %v != %v", trial, l.Digest(), ref.Digest())
		}
		if got := l.FaultSet(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (perm %v): fault set %v != %v", trial, perm, got, want)
		}
	}
}

// TestLogInPlaceApplyMatchesReplay checks the in-place apply rule
// against its definition: after every Apply, the fault set equals a
// fresh replay of every applied event in (LT, Origin, Seq) order.
// Delivery is nearly in order, so most events extend the fault set in
// place and the late ones force a replay; a tenth of the events clear.
func TestLogInPlaceApplyMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	origins := []string{"a", "b", "c"}
	logs := map[string]*Log{}
	for _, o := range origins {
		logs[o] = NewLog()
	}
	var all []Event
	for i := 0; i < 200; i++ {
		o := origins[rng.Intn(len(origins))]
		if rng.Intn(3) > 0 {
			logs[o].Apply(all...) // otherwise originate concurrently
		}
		all = append(all, logs[o].Originate(o, []scenario.FailLink{fl(i)}, rng.Intn(10) == 0))
	}
	for i := 1; i < len(all); i++ {
		if rng.Intn(4) == 0 {
			all[i-1], all[i] = all[i], all[i-1]
		}
	}
	l := NewLog()
	for i, ev := range all {
		l.Apply(ev)
		ordered := l.Delta(Vector{})
		sort.Slice(ordered, func(i, j int) bool {
			a, b := ordered[i], ordered[j]
			if a.LT != b.LT {
				return a.LT < b.LT
			}
			if a.Origin != b.Origin {
				return a.Origin < b.Origin
			}
			return a.Seq < b.Seq
		})
		var want []scenario.FailLink
		for _, ev := range ordered {
			if ev.Clear {
				want = want[:0]
			}
			want = append(want, ev.Links...)
		}
		if got := l.FaultSet(); !slices.Equal(got, want) {
			t.Fatalf("after delivery %d: fault set %v, replay gives %v", i, got, want)
		}
	}
}

func TestLogDelta(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 3; i++ {
		l.Originate("a", []scenario.FailLink{fl(i)}, false)
	}
	l.Apply(Event{Origin: "b", Seq: 1, LT: 9, Links: []scenario.FailLink{fl(9)}})

	d := l.Delta(Vector{"a": 2})
	// Missing: a:3 and b:1.
	if len(d) != 2 {
		t.Fatalf("delta = %v, want 2 events", d)
	}
	for _, ev := range d {
		if ev.Origin == "a" && ev.Seq != 3 {
			t.Fatalf("delta included already-held a:%d", ev.Seq)
		}
	}
	if d := l.Delta(l.Digest()); len(d) != 0 {
		t.Fatalf("delta vs own digest = %v, want empty", d)
	}
}

func TestLogClearResetsFaults(t *testing.T) {
	l := NewLog()
	l.Originate("a", []scenario.FailLink{fl(1), fl(2)}, false)
	l.Originate("a", nil, true)
	if got := l.FaultSet(); len(got) != 0 {
		t.Fatalf("fault set after clear = %v, want empty", got)
	}
	l.Originate("a", []scenario.FailLink{fl(7)}, false)
	if got := l.FaultSet(); len(got) != 1 || got[0] != fl(7) {
		t.Fatalf("fault set after clear+add = %v", got)
	}
}

func TestLogApplyRejectsMalformed(t *testing.T) {
	l := NewLog()
	if newly := l.Apply(Event{Origin: "", Seq: 1}, Event{Origin: "a", Seq: 0}); len(newly) != 0 {
		t.Fatalf("malformed events applied: %v", newly)
	}
	if l.EventsApplied() != 0 {
		t.Fatal("malformed events counted")
	}
}

func BenchmarkLogApply(b *testing.B) {
	src := NewLog()
	evs := make([]Event, 64)
	for i := range evs {
		evs[i] = src.Originate("a", []scenario.FailLink{fl(i)}, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := NewLog()
		l.Apply(evs...)
	}
}

func ExampleVector_String() {
	v := Vector{"replica-b": 2, "replica-a": 7}
	fmt.Println(v.String())
	// Output: replica-a:7,replica-b:2
}
