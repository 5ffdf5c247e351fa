package serve

import (
	"testing"

	"bgqflow/internal/scenario"
	"bgqflow/internal/torus"
)

// Read sets are built by walking link IDs in ascending order; the keys
// must come out sorted, and must equal the keys of the fault event
// links that name the same links.
func TestLinkKeysFollowLinkIDOrder(t *testing.T) {
	for _, shape := range []torus.Shape{{2, 2, 4, 4, 2}, {3, 5}, {4, 4, 4, 16, 2}} {
		tor := torus.MustNew(shape)
		prev := -1
		for id := 0; id < tor.NumTorusLinks(); id++ {
			from, dim, dir := tor.LinkFrom(id)
			k := linkKey(int(from), dim, dir == torus.Minus)
			if int(k) <= prev {
				t.Fatalf("%v: key of link %d (%#x) not above its predecessor's (%#x)", shape, id, k, prev)
			}
			prev = int(k)
			fk, ok := faultKey(scenario.FailLink{Node: int(from), Dim: dim, Dir: int(dir)})
			if !ok || fk != k {
				t.Fatalf("%v: link %d: fault key %#x (ok %v), read key %#x", shape, id, fk, ok, k)
			}
		}
	}
}

// The recorded read set of a real plan: sorted keys of torus links only,
// and the emptiness read with the answer of the snapshot it ran under.
func TestPlanReadsOfAggPlan(t *testing.T) {
	c := newPlanCache(1, 1)
	snap := c.publish([]scenario.FailLink{{Node: 3, Dim: 4, Dir: 1}}, nil)
	var reads planReads
	req := AggRequest{Shape: "2x2x4x4x2", Workload: "pattern2", Seed: 1}
	if _, err := computeAgg(req, snap.faults, &reads); err != nil {
		t.Fatal(err)
	}
	rs := reads.readSet(snap)
	if rs == nil || len(rs.links) == 0 {
		t.Fatalf("agg plan recorded no link reads: %+v", rs)
	}
	for i, k := range rs.links {
		if k>>4 >= 128 {
			t.Fatalf("read key %#x names a node outside the torus (an extra link leaked in)", k)
		}
		if i > 0 && rs.links[i-1] >= k {
			t.Fatalf("read keys not sorted at %d", i)
		}
	}
	if !rs.askedAny || !rs.anyFailed || rs.size != 128 || rs.dims != 5 {
		t.Fatalf("emptiness read %+v, want asked on a 128-node 5-D torus with a failure", rs)
	}

	// A nil recorder, as the exported Compute functions pass, is safe.
	if _, err := computeAgg(req, snap.faults, nil); err != nil {
		t.Fatal(err)
	}
}
