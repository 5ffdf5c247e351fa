package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzTransferRequest sends arbitrary bodies to POST /v1/transfer on an
// in-process daemon. Every answer must be 200 (a session stream), 400,
// 409 or 429. A stream that ends in a report frame must carry the bytes
// of a direct RunTransfer on the same request, the check the session
// client's verification makes, and afterwards the daemon must still
// answer a plan request. Bodies naming more than fuzzMaxNodes nodes or
// pacing the session in wall time are skipped.
func FuzzTransferRequest(f *testing.F) {
	for _, seed := range []string{
		`{"id":"s-direct-clean","shape":"2x2x4x4x2","src":0,"dst":97,"bytes":67108864}`,
		`{"id":"s-direct-campaign","shape":"2x2x4x4x2","src":0,"dst":97,"bytes":67108864,"campaign":{"kind":"uniform","seed":7,"count":3,"windowMS":2}}`,
		`{"id":"s-knobs","shape":"2x2x4x4x2","src":3,"dst":64,"bytes":1048576,"maxReplans":-1,"detectFactor":2,"backoffUS":50}`,
		`{"id":"s-burst","shape":"2x2x4","src":0,"dst":9,"bytes":65536,"campaign":{"kind":"burst","seed":1,"count":4,"atMS":0.01}}`,
		`{"id":"s-nodes","shape":"2x2x4x4x2","src":0,"dst":127,"bytes":8388608,"campaign":{"kind":"nodes","seed":2,"count":1,"windowMS":1}}`,
		`{"id":"s-batch","shape":"2x2x4x4x2","src":0,"dst":97,"bytes":4096,"batch":true}`,
		`{"id":"","shape":"2x2x4x4x2","src":0,"dst":97,"bytes":1}`,
		`{"id":"s-bad","shape":"2x2x4x4x2abc","src":0,"dst":97,"bytes":1}`,
		`{"id":"s-mtbf","shape":"2x2x4","src":0,"dst":9,"bytes":65536,"campaign":{"kind":"mtbf","seed":3,"mtbfMS":0.01,"horizonMS":1}}`,
		`not json`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if namedNodes(body) > fuzzMaxNodes {
			t.Skip("fabric too large for a cheap input")
		}
		var paced struct{ PaceUS *float64 }
		if json.Unmarshal(body, &paced) == nil && paced.PaceUS != nil && *paced.PaceUS != 0 {
			t.Skip("paced sessions run in wall time")
		}
		s := New(Config{Workers: 1})
		defer s.Close()
		h := s.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/transfer", bytes.NewReader(body)))
		switch rec.Code {
		case 200:
			var last SessionFrame
			sc := bufio.NewScanner(rec.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
			for sc.Scan() {
				if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
					t.Fatalf("undecodable frame %q: %v", sc.Bytes(), err)
				}
			}
			if last.Type != "report" {
				break
			}
			req, err := decodeStrict[TransferRequest](body)
			if err != nil {
				t.Fatalf("streamed a session for an undecodable body: %v", err)
			}
			rep, rerr := RunTransfer(req, nil, TransferHooks{})
			want, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(last.Report, want) {
				t.Fatalf("streamed report differs from a direct RunTransfer\nstreamed: %s\ndirect:   %s", last.Report, want)
			}
			if got := rerr != nil; got != (last.Error != "") || got && rerr.Error() != last.Error {
				t.Fatalf("streamed error %q, direct error %v", last.Error, rerr)
			}
		case 400, 409, 429:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}

		const probe = `{"shape":"2x2x2","src":0,"dst":7,"bytes":1234567}`
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/plan/pair", strings.NewReader(probe)))
		if rec.Code != 200 {
			t.Fatalf("daemon unhealthy after body %q: probe status %d: %s", body, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	})
}
