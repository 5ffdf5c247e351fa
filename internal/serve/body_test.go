package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestTrailingBodyRejected sends every endpoint that decodes a JSON body
// a valid body followed by a second object or by garbage: each must
// answer 400 naming a bad body, and a refused fault or gossip body must
// apply and publish nothing. The same body followed only by whitespace
// is served.
func TestTrailingBodyRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec
	}
	// A finished session for the ack endpoint.
	const session = `{"id":"s-trail","shape":"2x2x4x4x2","src":0,"dst":97,"bytes":65536}`
	if rec := post("/v1/transfer", session); rec.Code != 200 {
		t.Fatalf("session: status %d: %s", rec.Code, rec.Body)
	}

	const badBody, badGossip = "serve: bad request body: ", "serve: bad gossip body: "
	for _, ep := range []struct{ path, body, prefix string }{
		{"/v1/plan/pair", `{"shape":"2x2x4x4x2","src":0,"dst":5,"bytes":1048576}`, badBody},
		{"/v1/plan/group", `{"shape":"2x2x4x4x2","srcOrigin":[0,0,0,0,0],"srcExtent":[1,1,2,2,1],"dstOrigin":[1,1,2,2,1],"dstExtent":[1,1,2,2,1],"bytes":1048576}`, badBody},
		{"/v1/plan/agg", `{"shape":"2x2x4x4x2","workload":"pattern2","seed":7}`, badBody},
		{"/v1/simulate", `{"shape":"2x2x4x4x2","transfer":{"kind":"pair","src":0,"dst":97,"bytes":4194304}}`, badBody},
		{"/v1/fault", `{"links":[{"node":1,"dim":0,"dir":1}]}`, badBody},
		{"/v1/transfer", `{"id":"s-trail-2","shape":"2x2x4x4x2","src":0,"dst":97,"bytes":65536}`, badBody},
		{"/v1/transfer/s-trail/ack", `{"seq":1}`, badBody},
		{"/v1/gossip", `{"from":"x","digest":{},"events":[{"origin":"x","seq":1,"lt":1,"links":[{"node":2,"dim":1,"dir":1}]}]}`, badGossip},
	} {
		for _, trailer := range []string{"\n" + `{"shape":"2x2x4x4x2","src":0,"dst":9,"bytes":1}`, " garbage"} {
			snap, applied := s.cache.current(), s.node.Log().EventsApplied()
			rec := post(ep.path, ep.body+trailer)
			var env planEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s with %q appended: undecodable answer %q: %v", ep.path, trailer, rec.Body, err)
			}
			if rec.Code != 400 || !strings.HasPrefix(env.Error, ep.prefix) {
				t.Errorf("%s with %q appended: status %d, error %q; want 400, %q...", ep.path, trailer, rec.Code, env.Error, ep.prefix)
			}
			if s.cache.current() != snap || s.node.Log().EventsApplied() != applied {
				t.Errorf("%s with %q appended: a refused body published a fault snapshot", ep.path, trailer)
			}
		}
		if rec := post(ep.path, ep.body+" \r\n\t"); rec.Code != 200 {
			t.Errorf("%s with trailing whitespace: status %d: %s", ep.path, rec.Code, rec.Body)
		}
	}
}
