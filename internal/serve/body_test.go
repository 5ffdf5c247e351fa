package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bgqflow/internal/obs"
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

// nearCanonicalPairs are pair bodies in, or a step away from, the form
// json.Marshal gives a PairRequest: the form decodePair reads, and the
// ones it must leave to the json.Decoder.
var nearCanonicalPairs = []string{
	`{"shape":"2x2x4x4x2","src":0,"dst":127,"bytes":4194304,"proxies":0}`,
	`{"shape":"2x2x4","src":7,"dst":0,"bytes":1,"proxies":-1}` + "\n",
	`{"topology":"dragonfly:4x4x2","src":1,"dst":9,"bytes":65536,"proxies":0}`,
	`{"shape":"2x2x4","topology":"fattree:8x4","src":0,"dst":7,"bytes":1048576,"proxies":2}`,
	`{"shape":"2x2x4","src":0,"dst":7,"bytes":9223372036854775807,"proxies":-9223372036854775808}`,
	`{"Shape":"2x2x4x4x2","src":0,"dst":127,"bytes":4194304,"proxies":0}`,
	`{"shape":"2x2x4x4x2","SRC":0,"dst":127,"bytes":4194304,"proxies":0}`,
	`{"shape":"2x2x4","shape":"2x2x4x4x2","src":0,"dst":127,"bytes":4194304,"proxies":0}`,
	`{"shape":"2x2x4x4x2","src":0,"dst":127,"bytes":4194304,"proxies":0,"proxies":3}`,
	`{"src":0,"shape":"2x2x4x4x2","dst":127,"bytes":4194304,"proxies":0}`,
	`{"shape":"2x2x4x4x2","src":0,"dst":127,"proxies":0,"bytes":4194304}`,
	`{"shape":"2x2x4x4x2","src":0,"dst":127,"bytes":4194304}`,
	`{"shape":"","src":0,"dst":7,"bytes":1024,"proxies":0}`,
	`{"shape":null,"src":0,"dst":7,"bytes":1024,"proxies":0}`,
	`{"shape":"2x2x4","src":0,"dst":7,"bytes":1024,"proxies":null}`,
	`{"shape":"2x2x4","src":-0,"dst":7,"bytes":1024,"proxies":0}`,
	`{"shape":"2x2x4","src":0,"dst":7,"bytes":1e3,"proxies":0}`,
	`{"shape":"2x2x4","src":1.0,"dst":7,"bytes":1024,"proxies":0}`,
	`{"shape":"2x2x4","src":0,"dst":07,"bytes":1024,"proxies":0}`,
	`{"shape":"2x2x4","src":0,"dst":7,"bytes":9223372036854775808,"proxies":0}`,
	`{"shape":"2x2x4","src":0,"dst":7,"bytes":1024,"proxies":-9223372036854775809}`,
	`{"shape":"2x2x4","src":0,"dst":7,"bytes":-1024,"proxies":+1}`,
	`{"shape":"2x2x\u0034","src":0,"dst":7,"bytes":1024,"proxies":0}`,
	`{"shape":"2x2x4\/","src":0,"dst":7,"bytes":1024,"proxies":0}`,
	`{"shape":"2x2x4é","src":0,"dst":7,"bytes":1024,"proxies":0}`,
	`{"shape":"2x2x4<","src":0,"dst":7,"bytes":1024,"proxies":0}`,
	"{\"shape\":\"2x2\tx4\",\"src\":0,\"dst\":7,\"bytes\":1024,\"proxies\":0}",
	`{"shape":"2x2x4","src":0,"dst":7,"bytes":1024,"proxies":0} `,
	`{"shape":"2x2x4","src":0,"dst":7,"bytes":1024,"proxies":0}}`,
	`{"shape":"2x2x4","src":0,"dst":7,"bytes":1024,"proxies":0`,
	`{"shape": "2x2x4", "src": 0, "dst": 7, "bytes": 1024, "proxies": 0}`,
	` {"shape":"2x2x4","src":0,"dst":7,"bytes":1024,"proxies":0}`,
	`{"shape":"2x2x4","src":0,"dst":7,"bytes":1024,"proxies":0,"extra":1}`,
}

// TestPairBodyDecodesAsDecoder sends decodeBody pair bodies in and near
// json.Marshal's form, and past the 1 MiB bound, and requires the value,
// the status and the error text of a json.Decoder reading the body
// through http.MaxBytesReader, as decodeBody did before it read pair
// bodies itself.
func TestPairBodyDecodesAsDecoder(t *testing.T) {
	const canon = `{"shape":"2x2x4","src":0,"dst":7,"bytes":1024,"proxies":0}`
	big := strings.Repeat(" ", maxBodyBytes)
	bodies := append([]string{
		canon + big,
		`{"shape":"2x2x4","src":0,"dst":7,"bytes":1024,"proxies":0} ` + big,
		canon[:len(canon)-1] + big + "}",
		`{"shape":"` + strings.Repeat("x", maxBodyBytes) + `","src":0,"dst":7,"bytes":1024,"proxies":0}`,
		canon + " garbage" + big,
		"",
	}, nearCanonicalPairs...)
	for _, body := range bodies {
		var want PairRequest
		dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(body)), maxBodyBytes))
		dec.DisallowUnknownFields()
		werr := decodeOne(dec, &want)

		var got PairRequest
		rec := httptest.NewRecorder()
		ok := decodeBody(rec, httptest.NewRequest("POST", "/v1/plan/pair", strings.NewReader(body)), obs.NewRegistry(), &got)
		what := body
		if len(what) > 80 {
			what = what[:80] + "…"
		}
		if ok != (werr == nil) || got != want {
			t.Errorf("body %q: decodeBody %v %+v, json.Decoder %v %+v", what, ok, got, werr, want)
			continue
		}
		if ok {
			continue
		}
		var env planEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != 400 || env.Error != "serve: bad request body: "+werr.Error() {
			t.Errorf("body %q: status %d, error %q; want 400, %q", what, rec.Code, env.Error, werr)
		}
	}
}

// TestCanonicalPairBodiesRead pins decodePair to the bodies it exists
// for: json.Marshal of a PairRequest whose strings are printable ASCII
// other than the characters encoding/json escapes is read, at the ends
// of every integer's range too.
func TestCanonicalPairBodiesRead(t *testing.T) {
	for _, req := range []PairRequest{
		{Shape: "2x2x4x4x2", Src: 0, Dst: 97, Bytes: 4 << 20},
		{Topology: "dragonfly:4x4x2", Src: 1, Dst: 9, Bytes: 65536, Proxies: -1},
		{Shape: "2x2x4", Topology: "fattree:8x4", Src: math.MaxInt, Dst: math.MinInt, Bytes: math.MaxInt64, Proxies: math.MinInt},
		{Shape: " !#$%'()*+,-./09:;=?@AZ[]^_`az{|}~", Bytes: math.MinInt64, Proxies: 3},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got PairRequest
		if !decodePair(body, &got) || got != req {
			t.Errorf("%s: decodePair read %+v, want %+v", body, got, req)
		}
	}
}
