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
