package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"bgqflow/internal/scenario"
)

// Event is one fault event as it travels the cluster: the replica that
// ingested it (Origin), that replica's per-origin sequence number (Seq,
// 1-based and gapless), a Lamport stamp assigned at origination (LT),
// and the payload — link failures to add, or Clear to reset the fault
// set (a repair).
//
// The triple (LT, Origin, Seq) is the canonical total order every
// replica replays events in. Because a replica only originates after
// applying everything it has seen, LT of a new event exceeds the LT of
// every event its originator knew about — so causally ordered events
// replay in causal order, and concurrent events tie-break on Origin
// deterministically.
type Event struct {
	Origin string              `json:"origin"`
	Seq    uint64              `json:"seq"`
	LT     uint64              `json:"lt"`
	Links  []scenario.FailLink `json:"links,omitempty"`
	Clear  bool                `json:"clear,omitempty"`
}

// Vector is a fault-epoch vector: for each origin, the highest gapless
// sequence number applied. Vector comparison is the cluster's staleness
// test — a replica may serve a request demanding vector V only if its
// own applied vector dominates V.
type Vector map[string]uint64

// Dominates reports whether v has applied at least everything o has.
func (v Vector) Dominates(o Vector) bool {
	for origin, seq := range o {
		if v[origin] < seq {
			return false
		}
	}
	return true
}

// Equal reports whether the vectors are identical (zero entries count
// as absent).
func (v Vector) Equal(o Vector) bool { return v.Dominates(o) && o.Dominates(v) }

// Merge raises v pointwise to max(v, o).
func (v Vector) Merge(o Vector) {
	for origin, seq := range o {
		if v[origin] < seq {
			v[origin] = seq
		}
	}
}

// Clone copies the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	for k, s := range v {
		out[k] = s
	}
	return out
}

// String renders the vector in its canonical wire form:
// "origin:seq,origin:seq" sorted by origin, "" for the empty vector.
// The form rides in response envelopes and the X-Bgq-Min-Vector header.
func (v Vector) String() string {
	if len(v) == 0 {
		return ""
	}
	origins := make([]string, 0, len(v))
	for o, s := range v {
		if s > 0 {
			origins = append(origins, o)
		}
	}
	sort.Strings(origins)
	var b strings.Builder
	for i, o := range origins {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(o)
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(v[o], 10))
	}
	return b.String()
}

// ParseVector parses the String form. "" is the empty vector.
func ParseVector(s string) (Vector, error) {
	v := Vector{}
	if s == "" {
		return v, nil
	}
	for _, part := range strings.Split(s, ",") {
		origin, seqStr, ok := strings.Cut(part, ":")
		if !ok || origin == "" {
			return nil, fmt.Errorf("cluster: bad vector entry %q", part)
		}
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad vector entry %q: %v", part, err)
		}
		if seq > v[origin] {
			v[origin] = seq
		}
	}
	return v, nil
}

// Log is a replica's fault-event store: the set of events it has
// applied, the vector summarizing them, and the effective fault set
// obtained by replaying the applied events in canonical (LT, Origin,
// Seq) order. Out-of-order arrivals (seq gaps) are buffered and applied
// once the gap fills, so the vector always describes a gapless prefix
// per origin. Safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	applied Vector
	pending map[string]map[uint64]Event
	events  []Event
	// last is the greatest applied event in canonical order.
	last    Event
	lt      uint64
	version uint64
	faults  []scenario.FailLink
}

// NewLog builds an empty log.
func NewLog() *Log {
	return &Log{applied: Vector{}, pending: make(map[string]map[uint64]Event)}
}

// Originate creates, stamps, and locally applies a new event at this
// replica. origin must be this replica's ID; the caller broadcasts the
// returned event to peers (gossip repairs any loss).
func (l *Log) Originate(origin string, links []scenario.FailLink, clear bool) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lt++
	ev := Event{
		Origin: origin,
		Seq:    l.applied[origin] + 1,
		LT:     l.lt,
		Links:  append([]scenario.FailLink(nil), links...),
		Clear:  clear,
	}
	l.applyLocked(ev)
	return ev
}

// Apply ingests remote events, returning the events newly applied (in
// apply order; buffered gap events resolve later). Duplicates and
// already-applied events are ignored, so Apply is idempotent.
func (l *Log) Apply(evs ...Event) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	before := len(l.events)
	for _, ev := range evs {
		if ev.Origin == "" || ev.Seq == 0 {
			continue
		}
		if ev.LT > l.lt {
			l.lt = ev.LT
		}
		if ev.Seq <= l.applied[ev.Origin] {
			continue
		}
		if l.pending[ev.Origin] == nil {
			l.pending[ev.Origin] = make(map[uint64]Event)
		}
		l.pending[ev.Origin][ev.Seq] = ev
		// Drain the gapless prefix.
		for {
			next, ok := l.pending[ev.Origin][l.applied[ev.Origin]+1]
			if !ok {
				break
			}
			delete(l.pending[ev.Origin], next.Seq)
			l.applyLocked(next)
		}
	}
	return append([]Event(nil), l.events[before:]...)
}

// applyLocked appends one gapless event and updates the fault set. An
// event that sorts after every applied event — always the case for a
// single origin — extends the fault set in place; only an event that
// arrives out of canonical order replays the history.
func (l *Log) applyLocked(ev Event) {
	l.applied[ev.Origin] = ev.Seq
	inOrder := len(l.events) == 0 || before(l.last, ev)
	l.events = append(l.events, ev)
	l.version++
	if !inOrder {
		l.replayLocked()
		return
	}
	l.last = ev
	if ev.Clear {
		l.faults = l.faults[:0]
	}
	l.faults = append(l.faults, ev.Links...)
}

// before reports whether a precedes b in canonical (LT, Origin, Seq)
// order.
func before(a, b Event) bool {
	if a.LT != b.LT {
		return a.LT < b.LT
	}
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	return a.Seq < b.Seq
}

// replayLocked rebuilds the effective fault set by replaying every
// applied event in canonical order, at O(events log events).
func (l *Log) replayLocked() {
	ordered := append([]Event(nil), l.events...)
	sort.Slice(ordered, func(i, j int) bool { return before(ordered[i], ordered[j]) })
	var faults []scenario.FailLink
	for _, ev := range ordered {
		if ev.Clear {
			faults = faults[:0]
		}
		faults = append(faults, ev.Links...)
	}
	l.faults = faults
}

// Digest snapshots the applied vector.
func (l *Log) Digest() Vector {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applied.Clone()
}

// Delta returns the applied events a peer holding vector `since` is
// missing, in this log's apply order.
func (l *Log) Delta(since Vector) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, ev := range l.events {
		if ev.Seq > since[ev.Origin] {
			out = append(out, ev)
		}
	}
	return out
}

// Snapshot returns (version, digest, fault set) read atomically — the
// serve layer uses it so its published vector never runs ahead of the
// fault set it vouches for.
func (l *Log) Snapshot() (uint64, Vector, []scenario.FailLink) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.version, l.applied.Clone(), append([]scenario.FailLink(nil), l.faults...)
}

// FaultSet returns the effective fault set (canonical replay order).
func (l *Log) FaultSet() []scenario.FailLink {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]scenario.FailLink(nil), l.faults...)
}

// Version is a local monotone counter bumped once per applied event —
// the hook a plan cache's epoch rides on.
func (l *Log) Version() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.version
}

// EventsApplied reports how many events this log has applied.
func (l *Log) EventsApplied() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}
