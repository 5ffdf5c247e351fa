package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/torus"
)

func TestBuildExportAndRoundTrip(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := netsim.DefaultParams()
	e, err := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		t.Fatal(err)
	}
	specs := []netsim.FlowSpec{
		{Src: 0, Dst: 9, Bytes: 1 << 20, Label: "a"},
		{Src: 3, Dst: 77, Bytes: 2 << 20, Label: "b"},
	}
	var ids []netsim.FlowID
	for _, s := range specs {
		ids = append(ids, e.Submit(s))
	}
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	_ = ids
	ex, err := BuildExport(e, mk, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Flows) != 2 {
		t.Fatalf("%d flow records", len(ex.Flows))
	}
	if ex.Flows[0].Label != "a" || ex.Flows[1].Bytes != 2<<20 {
		t.Fatal("flow records wrong")
	}
	if len(ex.Links) == 0 {
		t.Fatal("no link records")
	}
	for _, lr := range ex.Links {
		if lr.Bytes <= 0 || lr.Util < 0 || lr.Util > 1+1e-9 {
			t.Fatalf("bad link record %+v", lr)
		}
	}
	var buf bytes.Buffer
	if err := ex.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Export
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.MakespanS != ex.MakespanS || len(back.Flows) != len(ex.Flows) || len(back.Links) != len(ex.Links) {
		t.Fatal("round trip lost data")
	}
}

func TestBuildExportSpecMismatch(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := netsim.DefaultParams()
	e, _ := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
	e.Submit(netsim.FlowSpec{Src: 0, Dst: 1, Bytes: 1})
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildExport(e, mk, make([]netsim.FlowSpec, 5)); err == nil {
		t.Fatal("spec count mismatch accepted")
	}
	// nil specs read back from the engine.
	ex, err := BuildExport(e, mk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Flows) != 1 {
		t.Fatalf("engine-sourced export has %d flows", len(ex.Flows))
	}
}

// TestExportSchema2RoundTrip covers the schema-2 export end to end: an
// aborted flow's record survives the round trip and an attached timeline
// is preserved.
func TestExportSchema2RoundTrip(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := netsim.DefaultParams()
	e, err := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		t.Fatal(err)
	}
	tl := obs.NewLinkTimeline(1e-3)
	rec := obs.NewRecorder()
	e.SetSink(rec.EngineSink("run", tl))

	e.Submit(netsim.FlowSpec{Src: 0, Dst: 127, Bytes: 8 << 20, Label: "ok"})
	victim := e.Submit(netsim.FlowSpec{Src: 1, Dst: 127, Bytes: 8 << 20, Label: "dead"})
	e.FailLinkAt(e.FlowRouteLinks(victim)[0], 1e-3)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := BuildExport(e, mk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Schema != ExportSchema {
		t.Fatalf("schema = %d, want %d", ex.Schema, ExportSchema)
	}
	ex.AttachTimeline(e, tl)
	if ex.Timeline == nil || len(ex.Timeline.Links) == 0 || ex.Timeline.BucketS != 1e-3 {
		t.Fatalf("timeline not attached: %+v", ex.Timeline)
	}

	var buf bytes.Buffer
	if err := ex.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Export
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ExportSchema {
		t.Fatalf("round-trip schema = %d", back.Schema)
	}
	var sawAbort bool
	for _, f := range back.Flows {
		if f.Label == "dead" {
			sawAbort = true
			if !f.Aborted || f.AbortedS != 1e-3 {
				t.Fatalf("aborted record lost its marker: %+v", f)
			}
		}
	}
	if !sawAbort {
		t.Fatal("aborted flow missing from round trip")
	}
	if len(back.Timeline.Links) != len(ex.Timeline.Links) {
		t.Fatal("timeline lost in round trip")
	}
	for i, l := range back.Timeline.Links {
		if len(l.Util) != len(ex.Timeline.Links[i].Util) {
			t.Fatalf("link %d utilization series truncated", l.ID)
		}
	}

	// The engine sink recorded one span per flow live: the done flow and
	// the aborted one (which has a real activation window).
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("EngineSink recorded %d flow spans, want 2", len(spans))
	}
	var sinkAbort bool
	for _, s := range spans {
		if s.Aborted {
			sinkAbort = true
		}
	}
	if !sinkAbort {
		t.Fatal("EngineSink dropped the aborted flow's span")
	}
}
