package netsim

import (
	"reflect"
	"testing"

	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

// HasFailures is answered from a count kept by FailLink and FailNode;
// failing a link twice, or failing a node one of whose links already
// failed, must not count a link twice.
func TestHasFailuresCountSurvivesRefail(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	net := NewNetwork(tor, DefaultParams().LinkBandwidth)
	if net.HasFailures() {
		t.Fatal("fresh network reports failures")
	}
	l := tor.LinkID(5, 2, torus.Plus)
	net.FailLink(l)
	net.FailLink(l)
	if !net.HasFailures() || net.numFailed != 1 {
		t.Fatalf("after failing link %d twice: HasFailures %v, count %d, want true and 1", l, net.HasFailures(), net.numFailed)
	}

	// Node 5 owns l: FailNode must count only the links not yet failed.
	net.FailNode(5)
	want := len(net.NodeLinks(5))
	if net.numFailed != want {
		t.Fatalf("after FailNode over a failed link: count %d, want %d", net.numFailed, want)
	}
	net.FailNode(5)
	if net.numFailed != want {
		t.Fatalf("after failing node 5 twice: count %d, want %d", net.numFailed, want)
	}
	failed := 0
	for id := 0; id < net.NumLinks(); id++ {
		if net.LinkFailed(id) {
			failed++
		}
	}
	if failed != net.numFailed {
		t.Fatalf("count %d disagrees with the failed table (%d)", net.numFailed, failed)
	}
}

// A recording network marks every link whose failed flag is read —
// through LinkFailed directly, through FailedFunc, and through the
// engine's fail-stop check at Submit — and the HasFailures read.
func TestFaultReadsRecordEveryReadSite(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	net := NewNetwork(tor, p.LinkBandwidth)
	var r FaultReads
	net.RecordFaultReads(&r)

	net.LinkFailed(7)
	pred := net.FailedFunc()
	pred(3)
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(FlowSpec{Src: 0, Dst: 97, Bytes: 1 << 20})
	want := map[int]bool{7: true, 3: true}
	for _, l := range routing.DeterministicRoute(tor, 0, 97).Links {
		want[l] = true
	}
	var got []int
	r.ForEachLink(func(id int) { got = append(got, id) })
	if len(got) != len(want) || r.NumLinks() != len(want) {
		t.Fatalf("recorded %v (NumLinks %d), want the %d links %v", got, r.NumLinks(), len(want), want)
	}
	for i, l := range got {
		if !want[l] {
			t.Fatalf("recorded link %d was never read", l)
		}
		if i > 0 && got[i-1] >= l {
			t.Fatalf("ForEachLink not ascending: %v", got)
		}
	}
	if r.AskedHasFailures() {
		t.Fatal("emptiness read recorded before HasFailures was called")
	}
	net.HasFailures()
	if !r.AskedHasFailures() {
		t.Fatal("HasFailures read not recorded")
	}

	// Detached, reads leave the record alone.
	net.RecordFaultReads(nil)
	before := append([]int(nil), got...)
	net.LinkFailed(net.NumLinks() - 1)
	got = got[:0]
	r.ForEachLink(func(id int) { got = append(got, id) })
	if !reflect.DeepEqual(got, before) {
		t.Fatalf("detached network still records: %v -> %v", before, got)
	}
}
