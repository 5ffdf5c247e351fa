package core

import (
	"math/rand"
	"slices"
	"testing"

	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

// exhaustiveDisjointRoute is the reference leg search disjointRoute must
// agree with: every dimension order in Heap's order, each built in full
// with RouteWithOrder, checked against busy ∪ alsoAvoid and then against
// the fault predicate.
func exhaustiveDisjointRoute(tor *torus.Torus, src, dst torus.NodeID, busy map[int]struct{}, faults func(int) bool, alsoAvoid []int) (routing.Route, bool) {
	avoid := make(map[int]struct{}, len(busy)+len(alsoAvoid))
	for l := range busy {
		avoid[l] = struct{}{}
	}
	for _, l := range alsoAvoid {
		avoid[l] = struct{}{}
	}
	var p routing.Permuter
	p.Reset(tor.DimsByExtentDesc())
	for order, ok := p.Next(); ok; order, ok = p.Next() {
		r := routing.RouteWithOrder(tor, src, dst, order)
		if !anyBusy(avoid, r.Links) && !anyFailed(faults, r.Links) {
			return r, true
		}
	}
	return routing.Route{}, false
}

// legSearchCase draws a torus of 1 to 8 dimensions, an endpoint pair, and
// busy, avoid and failed links. The links are sampled from the routes of
// random dimension orders between the pair, so they block some orders and
// leave others open.
func legSearchCase(rng *rand.Rand) (tor *torus.Torus, src, dst torus.NodeID, busy map[int]struct{}, avoid []int, failed map[int]bool) {
	dims := 1 + rng.Intn(torus.MaxDims)
	maxExt := 8
	if dims > 4 {
		maxExt = 4
	}
	shape := make(torus.Shape, dims)
	for i := range shape {
		shape[i] = 1 + rng.Intn(maxExt)
	}
	tor = torus.MustNew(shape)
	src = torus.NodeID(rng.Intn(tor.Size()))
	dst = torus.NodeID(rng.Intn(tor.Size()))
	order := tor.DimsByExtentDesc()
	sample := func(k int) []int {
		var out []int
		for i := 0; i < k; i++ {
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			if links := routing.RouteWithOrder(tor, src, dst, order).Links; len(links) > 0 {
				out = append(out, links[rng.Intn(len(links))])
			}
		}
		return out
	}
	busy = make(map[int]struct{})
	for _, l := range sample(rng.Intn(4)) {
		busy[l] = struct{}{}
	}
	for i := rng.Intn(3); i > 0; i-- {
		busy[rng.Intn(tor.NumTorusLinks())] = struct{}{}
	}
	avoid = sample(rng.Intn(3))
	failed = make(map[int]bool)
	for _, l := range sample(rng.Intn(4)) {
		failed[l] = true
	}
	return tor, src, dst, busy, avoid, failed
}

// TestDisjointRouteMatchesExhaustive pins the segment-memoized leg search
// to the exhaustive one on seeded cases over 1-D to 8-D tori: the same
// route (or the same failure), and the same set of links handed to the
// fault predicate — the read set scoped cache invalidation relies on.
func TestDisjointRouteMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	found, blocked, withFaults := 0, 0, 0
	for i := 0; i < 10000; i++ {
		tor, src, dst, busy, avoid, failed := legSearchCase(rng)
		var faults func(int) bool
		var gotReads, wantReads []int
		if len(failed) > 0 || rng.Intn(2) == 0 {
			withFaults++
			faults = func(l int) bool { return failed[l] }
		}
		record := func(reads *[]int) func(int) bool {
			if faults == nil {
				return nil
			}
			return func(l int) bool {
				*reads = append(*reads, l)
				return faults(l)
			}
		}
		want, wantOK := exhaustiveDisjointRoute(tor, src, dst, busy, record(&wantReads), avoid)
		got, gotOK := disjointRoute(tor, src, dst, busy, record(&gotReads), avoid)
		if gotOK != wantOK || !slices.Equal(got.Links, want.Links) || got.Src != want.Src || got.Dst != want.Dst {
			t.Fatalf("case %d (%v %d->%d): got %v %v, want %v %v", i, tor.Shape(), src, dst, got.Links, gotOK, want.Links, wantOK)
		}
		slices.Sort(gotReads)
		slices.Sort(wantReads)
		gotReads, wantReads = slices.Compact(gotReads), slices.Compact(wantReads)
		if !slices.Equal(gotReads, wantReads) {
			t.Fatalf("case %d (%v %d->%d): fault predicate read %v, want %v", i, tor.Shape(), src, dst, gotReads, wantReads)
		}
		if wantOK {
			found++
		} else {
			blocked++
		}
	}
	// The generator must exercise both outcomes and the fault path.
	if found < 1000 || blocked < 1000 || withFaults < 1000 {
		t.Fatalf("weak coverage: %d found, %d blocked, %d with faults", found, blocked, withFaults)
	}
}
