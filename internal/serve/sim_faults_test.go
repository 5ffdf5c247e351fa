package serve_test

// Simulate requests under the daemon's fault set: a sim records the
// fault reads of the plan it builds, so it is cached across faults on
// links it never read; the daemon's faults apply to its plan but never
// to its own failLinks or its notes; and io scenarios honour faults the
// way agg plans do.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
	"bgqflow/internal/torus"
)

// A sim entry survives a fault on a link it never read and is recomputed
// after a fault on a link it read. A direct pair reads exactly its route.
func TestSimKeepsReadSet(t *testing.T) {
	_, client := newTestDaemon(t, serve.Config{})
	ctx := context.Background()
	cfg := scenario.Config{
		Shape:    testShape,
		Transfer: &scenario.TransferConfig{Kind: "pair", Src: 0, Dst: 97, Bytes: 4 << 20, Proxies: -1},
	}
	res, err := client.Simulate(ctx, cfg)
	if err != nil || !res.OK() {
		t.Fatalf("first sim: %v status %d: %s", err, res.Status, res.Err)
	}
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	route := netsim.NewNetwork(tor, 1).Route(0, 97).Links
	onRoute := map[int]bool{}
	for _, l := range route {
		onRoute[l] = true
	}
	var unread scenario.FailLink
	for n := 0; ; n++ {
		fl := scenario.FailLink{Node: n, Dim: 0, Dir: 1}
		if !onRoute[linkID(fl)] {
			unread = fl
			break
		}
	}
	if _, err := client.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{unread}}); err != nil {
		t.Fatal(err)
	}
	res2, err := client.Simulate(ctx, cfg)
	if err != nil || !res2.OK() {
		t.Fatalf("after unread fault: %v status %d", err, res2.Status)
	}
	if !res2.Cached || !bytes.Equal(res2.Plan, res.Plan) {
		t.Fatalf("fault on unread link %+v: cached %v, same sim %v", unread, res2.Cached, bytes.Equal(res2.Plan, res.Plan))
	}

	read, ok := linkToFail(t, testShape, route[0])
	if !ok {
		t.Fatal("cannot invert the route's first link")
	}
	if _, err := client.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{read}}); err != nil {
		t.Fatal(err)
	}
	res3, err := client.Simulate(ctx, cfg)
	if err != nil || !res3.OK() {
		t.Fatalf("after read fault: %v status %d", err, res3.Status)
	}
	if res3.Cached || res3.Coalesced {
		t.Fatalf("fault on read link %+v left the sim cached", read)
	}
	want, err := serve.ComputeSim(cfg, []scenario.FailLink{unread, read})
	if err != nil {
		t.Fatal(err)
	}
	if wb, _ := json.Marshal(want); !bytes.Equal(res3.Plan, wb) {
		t.Fatalf("recomputed sim differs from a direct call\nserved: %s\ndirect: %s", res3.Plan, wb)
	}
}

// The daemon's faults change a sim's plan but not its notes: the
// failed-links note counts the scenario's own failLinks only.
func TestSimNoteCountsOwnFailLinks(t *testing.T) {
	daemon := []scenario.FailLink{{Node: 0, Dim: 2, Dir: -1}, {Node: 0, Dim: 4, Dir: 1}}
	pair := &scenario.TransferConfig{Kind: "pair", Src: 0, Dst: 127, Bytes: 4 << 20}
	res, err := serve.ComputeSim(scenario.Config{Shape: testShape, Transfer: pair}, daemon)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Notes) != 0 {
		t.Errorf("sim without failLinks under daemon faults has notes %q", res.Notes)
	}
	own := []scenario.FailLink{{Node: 5, Dim: 1, Dir: 1}}
	res, err = serve.ComputeSim(scenario.Config{Shape: testShape, Transfer: pair, FailLinks: own}, daemon)
	if err != nil {
		t.Fatal(err)
	}
	if want := "1 links failed; planning around them"; len(res.Notes) != 1 || res.Notes[0] != want {
		t.Errorf("notes %q, want [%q]", res.Notes, want)
	}
}

// A topology simulation that also names a shape is not a torus scenario:
// the daemon's torus faults do not apply to it, and it keeps answering
// 200 with the same result after a fault event.
func TestSimTopologyWithShapeUnderFaults(t *testing.T) {
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	const body = `{"shape":"2x2x4x4x2","topology":"dragonfly:4x4x2","transfer":{"kind":"pair","src":1,"dst":9,"bytes":4194304}}`
	var before, after struct {
		Plan  json.RawMessage `json:"plan"`
		Error string          `json:"error"`
	}
	if code := postJSON(t, hs.URL+"/v1/simulate", body, &before); code != 200 {
		t.Fatalf("before the fault: status %d: %s", code, before.Error)
	}
	if code := postJSON(t, hs.URL+"/v1/fault", `{"links":[{"node":0,"dim":0,"dir":1}]}`, nil); code != 200 {
		t.Fatalf("fault: status %d", code)
	}
	if code := postJSON(t, hs.URL+"/v1/simulate", body, &after); code != 200 {
		t.Fatalf("after the fault: status %d: %s", code, after.Error)
	}
	if !bytes.Equal(before.Plan, after.Plan) {
		t.Fatalf("topology sim changed under a torus fault\nbefore: %s\nafter:  %s", before.Plan, after.Plan)
	}
}

// A served topology-aware io sim under faults plans the burst the agg
// plan does: the same makespan, or an error in both.
func TestSimIOHonoursFaults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults []scenario.FailLink
	}{
		{"one link", []scenario.FailLink{{Node: 11, Dim: 3, Dir: 1}}}, // reroutes a gather leg
		{"C-ring cut", cRingCut()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, client := newTestDaemon(t, serve.Config{})
			ctx := context.Background()
			if _, err := client.Fault(ctx, serve.FaultEvent{Links: tc.faults}); err != nil {
				t.Fatal(err)
			}
			agg := serve.AggRequest{Shape: testShape, Workload: "dense", MaxBytes: 1 << 20}
			sim := scenario.Config{Shape: testShape, IO: &scenario.IOConfig{Workload: "dense", MaxBytes: 1 << 20, Approach: "topology-aware"}}
			ares, err := client.PlanAgg(ctx, agg)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := client.Simulate(ctx, sim)
			if err != nil {
				t.Fatal(err)
			}
			if ares.OK() != sres.OK() {
				t.Fatalf("agg status %d (%s), sim status %d (%s)", ares.Status, ares.Err, sres.Status, sres.Err)
			}
			if !ares.OK() {
				if ares.Status != 400 || sres.Status != 400 {
					t.Fatalf("agg status %d, sim status %d; want 400 for both", ares.Status, sres.Status)
				}
				return
			}
			var ap serve.AggPlan
			var sr serve.SimResult
			if err := json.Unmarshal(ares.Plan, &ap); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(sres.Plan, &sr); err != nil {
				t.Fatal(err)
			}
			if ap.MakespanMS != sr.MakespanMS {
				t.Fatalf("agg makespan %v ms, sim makespan %v ms", ap.MakespanMS, sr.MakespanMS)
			}
			free, err := serve.ComputeAgg(agg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if free.MakespanMS == sr.MakespanMS {
				t.Fatalf("sim under faults kept the fault-free makespan %v ms", sr.MakespanMS)
			}
		})
	}
}

// A collective-io write has no fault-aware routing: under faults that
// cut its routes the sim is a 400, and the daemon stays healthy.
func TestSimCollectiveIOUnderCutFaults(t *testing.T) {
	_, client := newTestDaemon(t, serve.Config{})
	ctx := context.Background()
	if _, err := client.Fault(ctx, serve.FaultEvent{Links: cRingCut()}); err != nil {
		t.Fatal(err)
	}
	res, err := client.Simulate(ctx, scenario.Config{Shape: testShape,
		IO: &scenario.IOConfig{Workload: "dense", MaxBytes: 1 << 20, Approach: "collective-io"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 400 || !strings.Contains(res.Err, "cut by failures") {
		t.Fatalf("collective-io sim over cut routes: status %d: %s", res.Status, res.Err)
	}
	if err := client.Health(ctx); err != nil {
		t.Fatalf("daemon unhealthy after a collective-io sim under cut faults: %v", err)
	}
}
