package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"bgqflow/internal/scenario"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
)

// decodeStrict decodes a request body the way decodeBody does: unknown
// fields and anything but whitespace after the value are errors.
func decodeStrict[T any](body []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := decodeOne(dec, &v)
	return v, err
}

// planEndpoints are the plan request decoders under fuzz, each with the
// direct computation a 200 answer must equal: decode, validate and
// Compute* under an empty fault set, as the handler does.
var planEndpoints = []struct {
	path   string
	direct func(body []byte) (any, error)
}{
	{"/v1/plan/pair", func(body []byte) (any, error) {
		req, err := decodeStrict[PairRequest](body)
		if err == nil {
			err = req.Validate()
		}
		if err != nil {
			return nil, err
		}
		return ComputePair(req, nil)
	}},
	{"/v1/plan/group", func(body []byte) (any, error) {
		req, err := decodeStrict[GroupRequest](body)
		if err == nil {
			err = req.Validate()
		}
		if err != nil {
			return nil, err
		}
		return ComputeGroup(req, nil)
	}},
	{"/v1/plan/agg", func(body []byte) (any, error) {
		req, err := decodeStrict[AggRequest](body)
		if err == nil {
			err = req.Validate()
		}
		if err != nil {
			return nil, err
		}
		return ComputeAgg(req, nil)
	}},
	{"/v1/simulate", func(body []byte) (any, error) {
		cfg, err := decodeStrict[scenario.Config](body)
		if err == nil {
			err = validateSim(&cfg)
		}
		if err != nil {
			return nil, err
		}
		return ComputeSim(cfg, nil)
	}},
}

// fuzzMaxNodes bounds the fabric a fuzz input may plan over, so each
// input stays cheap.
const fuzzMaxNodes = 4096

// namedNodes reports how many nodes the fabric a request body names
// has, saturating above fuzzMaxNodes; 0 when the body names none.
func namedNodes(body []byte) int {
	var probe struct{ Shape, Topology string }
	if json.NewDecoder(bytes.NewReader(body)).Decode(&probe) != nil {
		return 0
	}
	kind, dims := "torus", []int(nil)
	if probe.Topology != "" {
		k, d, err := topo.ParseSpec(probe.Topology)
		if err != nil {
			return 0
		}
		kind, dims = k, d
	} else if shape, err := torus.ParseShape(probe.Shape); err == nil {
		dims = shape
	}
	switch {
	case kind == "dragonfly" && len(dims) >= 2:
		dims = dims[:2] // G groups of A routers
	case kind == "fattree" && len(dims) >= 2:
		dims = dims[:1] // L leaves
	}
	n := 1
	for _, d := range dims {
		if d > fuzzMaxNodes/n {
			return fuzzMaxNodes + 1
		}
		n *= d
	}
	return n
}

// FuzzPlanRequest sends arbitrary pair, group, agg and simulate bodies to
// an in-process daemon with one worker. Every answer must be 200, 400 or
// 429, a 200 plan must equal the direct Compute* call byte for byte, and
// afterwards the worker must still compute a fresh plan — a request that
// panics or parks it fails here. Bodies naming more than fuzzMaxNodes
// nodes are skipped.
func FuzzPlanRequest(f *testing.F) {
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"shape":"2x2x4x4x2","src":0,"dst":127,"bytes":4194304}`},
		{0, `{"shape":"2x2x4","src":0,"dst":5,"bytes":1024,"proxies":-1}`},
		{0, `{"topology":"dragonfly:4x4x2","src":1,"dst":9,"bytes":65536}`},
		{0, `{"topology":"fattree:8x4","src":0,"dst":7,"bytes":1048576}`},
		{1, `{"shape":"2x2x4x4x2","srcOrigin":[0,0,0,0,0],"srcExtent":[1,1,2,2,1],"dstOrigin":[1,1,2,2,1],"dstExtent":[1,1,2,2,1],"bytes":1048576}`},
		{2, `{"shape":"2x2x4x4x2","workload":"pattern2","seed":7}`},
		{2, `{"shape":"2x2x4x4x2","workload":"dense","ranksPerNode":1099511627776}`},
		{3, `{"shape":"2x2x4x4x2","transfer":{"kind":"pair","src":0,"dst":97,"bytes":4194304}}`},
		{3, `{"topology":"fattree:8x4x2","transfer":{"kind":"pair","src":0,"dst":5,"bytes":4194304}}`},
		{3, `{"shape":"2x2x4x4x2","ranksPerNode":1099511627776,"io":{"workload":"dense","approach":"topology-aware"}}`},
		{3, `{"shape":"2x2x4x4x2","io":{"workload":"file","burstFile":"burst.json","approach":"topology-aware"}}`},
		{3, `{"shape":"2x2x4","transfer":{"kind":"pair","src":0,"dst":9,"bytes":65536},"faultCampaign":{"kind":"mtbf","seed":3,"mtbfMS":0.01,"horizonMS":1}}`},
		{0, `not json`},
		{1, ``},
		{2, `{"bogus":1}`},
		{3, `{}`},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}
	for _, body := range nearCanonicalPairs {
		f.Add(uint8(0), []byte(body))
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		if namedNodes(body) > fuzzMaxNodes {
			t.Skip("fabric too large for a cheap input")
		}
		ep := planEndpoints[int(endpoint)%len(planEndpoints)]
		s := New(Config{Workers: 1})
		defer s.Close()
		h := s.Handler()
		post := func(path string, b []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(b)))
			return rec
		}

		rec := post(ep.path, body)
		switch rec.Code {
		case 200:
			var env planEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("200 with undecodable envelope: %v", err)
			}
			plan, err := ep.direct(body)
			if err != nil {
				t.Fatalf("%s served 200, direct call failed: %v", ep.path, err)
			}
			want, err := json.Marshal(plan)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(env.Plan, want) {
				t.Fatalf("%s: served plan differs from direct call\nserved: %s\ndirect: %s", ep.path, env.Plan, want)
			}
		case 400, 429:
		default:
			t.Fatalf("%s: status %d for body %q", ep.path, rec.Code, body)
		}

		const probe = `{"shape":"2x2x2","src":0,"dst":7,"bytes":1234567}`
		if rec := post("/v1/plan/pair", []byte(probe)); rec.Code != 200 {
			t.Fatalf("worker lost after %s body %q: probe status %d: %s", ep.path, body, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	})
}
