package serve

import (
	"bytes"
	"net/http/httptest"
	"slices"
	"testing"
)

// FuzzFaultEvent sends arbitrary POST /v1/fault bodies to an in-process
// daemon holding a two-link fault set. The daemon must answer 200 or
// 400 only — never panic or 5xx — and a rejected event must publish
// nothing. The fault-set diff between the snapshots before and after
// must be symmetric, empty for equal sets in any order or multiplicity,
// and exactly the set of links the new snapshot stamps.
func FuzzFaultEvent(f *testing.F) {
	for _, body := range []string{
		`{"links":[{"node":1,"dim":0,"dir":1}]}`,
		`{"clear":true}`,
		`{"clear":true,"links":[{"node":5,"dim":4,"dir":-1}]}`,
		`{"links":[{"node":1,"dim":0,"dir":1},{"node":1,"dim":0,"dir":1}]}`,
		`{"links":[{"node":-1,"dim":0,"dir":1}]}`,
		`{"links":[{"node":1,"dim":0,"dir":0}]}`,
		`{"links":[{"node":268435456,"dim":9,"dir":-1}],"clear":true}`,
		`{"links":null}`,
		`{"bogus":1}`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	const base = `{"links":[{"node":1,"dim":0,"dir":1},{"node":5,"dim":4,"dir":-1}]}`
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 1})
		defer s.Close()
		h := s.Handler()
		post := func(b []byte) int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/fault", bytes.NewReader(b)))
			return rec.Code
		}
		if code := post([]byte(base)); code != 200 {
			t.Fatalf("base event: status %d", code)
		}
		before := s.cache.current()
		code := post(body)
		after := s.cache.current()
		switch code {
		case 200:
			if after.epoch != before.epoch+1 {
				t.Fatalf("accepted event moved the epoch %d -> %d", before.epoch, after.epoch)
			}
		case 400:
			if after != before {
				t.Fatal("rejected event published a snapshot")
			}
		default:
			t.Fatalf("status %d for body %q", code, body)
		}

		d := diffFaults(before.faults, after.faults)
		if back := diffFaults(after.faults, before.faults); !slices.Equal(d, back) {
			t.Fatalf("diff not symmetric: %v vs %v", d, back)
		}
		shuffled := append(slices.Clone(after.faults), after.faults...)
		slices.Reverse(shuffled)
		if same := diffFaults(after.faults, shuffled); len(same) != 0 {
			t.Fatalf("diff of a set with itself reordered and doubled: %v", same)
		}
		for k, ep := range after.stamps {
			_, changed := slices.BinarySearch(d, k)
			if changed != (ep == after.epoch && after != before) {
				t.Fatalf("link key %#x stamped %d at epoch %d, changed %v", k, ep, after.epoch, changed)
			}
		}
		for _, k := range d {
			if after.stamps[k] != after.epoch {
				t.Fatalf("changed link key %#x stamped %d, want epoch %d", k, after.stamps[k], after.epoch)
			}
		}
	})
}

// FuzzGossipMessage sends arbitrary POST /v1/gossip bodies to an
// in-process daemon that has originated one event. The daemon must
// answer 200 or 400 only — never panic or 5xx. A rejected message must
// apply and publish nothing; after an accepted one the published
// snapshot's fault set and vector must equal the log's FaultSet and
// Digest, and hold only links POST /v1/fault accepts.
func FuzzGossipMessage(f *testing.F) {
	for _, body := range []string{
		`{"from":"x","digest":{},"events":[{"origin":"x","seq":1,"lt":1,"links":[{"node":2,"dim":1,"dir":1}]}]}`,
		`{"from":"x","digest":{"bgqd":1},"events":[{"origin":"x","seq":2,"lt":3,"clear":true}]}`,
		`{"from":"x","digest":{},"events":[{"origin":"x","seq":1,"lt":9,"clear":true},{"origin":"y","seq":1,"lt":0,"links":[{"node":5,"dim":4,"dir":-1}]}]}`,
		`{"from":"x","digest":{},"events":[{"origin":"bgqd","seq":1,"lt":1}]}`,
		`{"from":"x","digest":{},"events":[{"origin":"bgqd","seq":2,"lt":1,"links":[{"node":7,"dim":2,"dir":1}]}]}`,
		`{"from":"x","events":[{"origin":"y","seq":1,"lt":2,"links":[{"node":-5,"dim":-2,"dir":7}]}]}`,
		`{"from":"x","events":[{"origin":"y","seq":1,"lt":2,"links":[{"node":1,"dim":0,"dir":1}]},{"origin":"z","seq":1,"lt":2,"links":[{"node":1,"dim":0,"dir":0}]}]}`,
		`{"from":"x","digest":{"x":"a"}}`,
		`{"events":[{"origin":"","seq":0}]}`,
		`{}`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	const base = `{"links":[{"node":1,"dim":0,"dir":1},{"node":5,"dim":4,"dir":-1}]}`
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 1})
		defer s.Close()
		h := s.Handler()
		post := func(path string, b []byte) int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(b)))
			return rec.Code
		}
		if code := post("/v1/fault", []byte(base)); code != 200 {
			t.Fatalf("base event: status %d", code)
		}
		log := s.node.Log()
		before, applied := s.cache.current(), log.EventsApplied()
		code := post("/v1/gossip", body)
		after := s.cache.current()
		switch code {
		case 200:
			if faults := log.FaultSet(); !slices.Equal(after.faults, faults) {
				t.Fatalf("published fault set %v, log holds %v", after.faults, faults)
			}
			if err := validateLinks(after.faults); err != nil {
				t.Fatalf("gossip published a link POST /v1/fault rejects: %v", err)
			}
			if vec := log.Digest(); !after.vec.Equal(vec) || after.vecStr != vec.String() {
				t.Fatalf("published vector %q, log holds %q", after.vecStr, vec)
			}
		case 400:
			if after != before || log.EventsApplied() != applied {
				t.Fatal("rejected gossip message applied or published")
			}
		default:
			t.Fatalf("status %d for body %q", code, body)
		}
	})
}
