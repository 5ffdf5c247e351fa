package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/scenario"
)

// envelopePlans returns stored plan bytes of every kind: one plan each
// from ComputePair, ComputeGroup, ComputeAgg and ComputeSim, and a value
// whose strings hold the characters encoding/json escapes.
func envelopePlans(t testing.TB) map[string][]byte {
	t.Helper()
	decode := func(body string, v any) {
		if err := json.Unmarshal([]byte(body), v); err != nil {
			t.Fatal(err)
		}
	}
	var pair PairRequest
	decode(`{"shape":"2x2x4x4x2","src":0,"dst":127,"bytes":4194304}`, &pair)
	var group GroupRequest
	decode(`{"shape":"2x2x4x4x2","srcOrigin":[0,0,0,0,0],"srcExtent":[1,1,2,2,1],"dstOrigin":[1,1,2,2,1],"dstExtent":[1,1,2,2,1],"bytes":1048576}`, &group)
	var agg AggRequest
	decode(`{"shape":"2x2x4x4x2","workload":"pattern2","seed":7}`, &agg)
	var sim scenario.Config
	decode(`{"shape":"2x2x4x4x2","transfer":{"kind":"pair","src":0,"dst":97,"bytes":4194304}}`, &sim)
	if err := validateSim(&sim); err != nil {
		t.Fatal(err)
	}
	plans := map[string][]byte{}
	for name, compute := range map[string]func() (any, error){
		"pair":  func() (any, error) { return ComputePair(pair, nil) },
		"group": func() (any, error) { return ComputeGroup(group, nil) },
		"agg":   func() (any, error) { return ComputeAgg(agg, nil) },
		"sim":   func() (any, error) { return ComputeSim(sim, nil) },
		"escapes": func() (any, error) {
			return map[string]any{"note": "<a href=\"x\">&amp;</a>\u2028\u2029 \xff\xfe", "ids": []string{"\\", "\t", "", `"`, "}]"}}, nil
		},
	} {
		plan, err := compute()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := json.Marshal(plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plans[name] = b
	}
	return plans
}

// envelopeVectors are fault-epoch vectors whose string forms are empty,
// plain, and full of characters encoding/json escapes.
var envelopeVectors = []cluster.Vector{
	{},
	{"bgqd": 3},
	{"r\"1\\<b>&\xff": 9, "bgqd": 2},
}

// TestPlanEnvelopeBytes pins writePlan to writeJSON: for every plan
// kind, epoch, outcome and vector, the 200 response is the one the
// encoder writes for the same planEnvelope, byte for byte, and the
// client's splitEnvelope bounds the stored plan in it.
func TestPlanEnvelopeBytes(t *testing.T) {
	for name, plan := range envelopePlans(t) {
		for _, vec := range envelopeVectors {
			for _, epoch := range []uint64{0, 1, math.MaxUint64} {
				for _, outcome := range []cacheOutcome{outcomeComputed, outcomeHit, outcomeCoalesced} {
					snap := nextSnapshot(&faultSnapshot{}, nil, vec)
					snap.epoch = epoch
					got := httptest.NewRecorder()
					writePlan(got, plan, snap, outcome)
					want := httptest.NewRecorder()
					writeJSON(want, 200, planEnvelope{
						Plan:      plan,
						Epoch:     epoch,
						Cached:    outcome == outcomeHit,
						Coalesced: outcome == outcomeCoalesced,
						Vector:    snap.vecStr,
					})
					what := fmt.Sprintf("%s plan, epoch %d, outcome %d, vector %q", name, epoch, outcome, snap.vecStr)
					if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
						t.Fatalf("%s: status %d %q, want %d %q", what, got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
					}
					if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Fatalf("%s: body differs\ngot:  %q\nwant: %q", what, got.Body.Bytes(), want.Body.Bytes())
					}
					if p, _, ok := splitEnvelope(got.Body.Bytes()); !ok || !bytes.Equal(p, plan) {
						t.Fatalf("%s: the client's single-pass split does not take the body", what)
					}
				}
			}
		}
	}
}

// servedBodies returns plan response bodies from an in-process daemon
// with one worker and one queue slot: a computed pair plan, its cache
// hit, a 400, a wait on a computation in flight (coalesced unless the
// waiter is descheduled past the computation's release) and a 429.
func servedBodies(t testing.TB) [][]byte {
	t.Helper()
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	h := s.Handler()
	post := func(body string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/plan/pair", bytes.NewBufferString(body)))
		return rec.Body.Bytes()
	}
	const pair = `{"shape":"2x2x4x4x2","src":0,"dst":5,"bytes":1048576}`
	bodies := [][]byte{post(pair), post(pair), post(`{"bogus":1}`)}

	started, release := make(chan struct{}), make(chan struct{})
	plan := func([]scenario.FailLink, *planReads) (any, error) { return PairPlan{Mode: "direct"}, nil }
	requests := s.reg.Counter("serve/requests")
	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, 3)
	start := func(i int, key string, compute func([]scenario.FailLink, *planReads) (any, error)) {
		recs[i] = httptest.NewRecorder()
		want := requests.Value() + 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.servePlan(recs[i], httptest.NewRequest("POST", "/v1/plan/pair", nil), "pair", key, compute)
		}()
		for requests.Value() < want {
			time.Sleep(time.Millisecond)
		}
	}
	start(0, "blocking", func(f []scenario.FailLink, r *planReads) (any, error) {
		close(started)
		<-release
		return plan(f, r)
	})
	<-started // the worker is pinned
	start(1, "blocking", plan)
	start(2, "fill", plan)
	for s.disp.queued() != 1 {
		time.Sleep(time.Millisecond)
	}
	shed := httptest.NewRecorder()
	s.servePlan(shed, httptest.NewRequest("POST", "/v1/plan/pair", nil), "pair", "shed", plan)
	time.Sleep(10 * time.Millisecond) // let the waiter reach the in-flight entry
	close(release)
	wg.Wait()
	for _, rec := range recs {
		bodies = append(bodies, rec.Body.Bytes())
	}
	return append(bodies, shed.Body.Bytes())
}

// FuzzPlanEnvelope checks the client's envelope decoder against
// json.Unmarshal: for any body both fail, or both succeed with the same
// fields and equal plan bytes, and decodeEnvelope leaves the body as it
// found it.
func FuzzPlanEnvelope(f *testing.F) {
	served := servedBodies(f)
	for _, b := range served {
		f.Add(b)
	}
	// The cache hit without its closing brace, for members to follow.
	hit := string(bytes.TrimSpace(served[1]))
	open := hit[:len(hit)-1]
	// A plan nested depth deep: encoding/json takes 10000 levels, and
	// the envelope is one of them.
	nested := func(depth int) string {
		return `{"plan":{"a":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `},"epoch":1}`
	}
	for _, b := range []string{
		nested(9999),
		nested(10000),
		open + `,"plan":{"mode":"x"}}`,
		open + `,"Plan":[1,2],"EPOCH":9}`,
		open + `,"epoch":5,"epoch":6}`,
		`{"plan": ` + hit[len(planOpen):],
		hit[:len(hit)/2],
		hit + " garbage",
		hit + `{"plan":{}}`,
		`{"plan":{"a":"}\\\"}"},}`,
		`{"plan":{"a":[1,{"b":"]"}]} ,` + "\n" + ` "epoch":1}`,
		`{"plan":{},"epoch":"x","vector":"v"}`,
		`{"plan":{}}`,
		`{"plan":{}` + "\t" + `}`,
		`{"plan":{"a":1}},"epoch":1}`,
		`{"plan":{"a" 1},"epoch":1}`,
		`{"plan":{]`,
		``,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		orig := bytes.Clone(body)
		got, err := decodeEnvelope(body)
		if !bytes.Equal(body, orig) {
			t.Fatalf("decodeEnvelope changed its input")
		}
		var want planEnvelope
		werr := json.Unmarshal(body, &want)
		if (err != nil) != (werr != nil) {
			t.Fatalf("body %q: decodeEnvelope error %v, json.Unmarshal error %v", body, err, werr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got.Plan, want.Plan) || (got.Plan == nil) != (want.Plan == nil) {
			t.Fatalf("body %q: plan %q, json.Unmarshal plan %q", body, got.Plan, want.Plan)
		}
		got.Plan, want.Plan = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: fields %+v, json.Unmarshal fields %+v", body, got, want)
		}
	})
}
