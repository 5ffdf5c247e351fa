package routing

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bgqflow/internal/torus"
)

func mira128() *torus.Torus { return torus.MustNew(torus.Shape{2, 2, 4, 4, 2}) }

// validateRoute checks that a route is a dimension-ordered walk of unit
// hops from src to dst with minimal per-dimension distances.
func validateRoute(t *testing.T, tor *torus.Torus, r Route) {
	t.Helper()
	cur := tor.Coord(r.Src)
	lastDim := -1
	seenDims := make(map[int]bool)
	for i, l := range r.Links {
		from, dim, dir := tor.LinkFrom(l)
		if from != tor.ID(cur) {
			t.Fatalf("hop %d departs from %v, position is %v", i, tor.Coord(from), cur)
		}
		if dim != lastDim {
			if seenDims[dim] {
				t.Fatalf("hop %d revisits dimension %d: not dimension-ordered", i, dim)
			}
			seenDims[dim] = true
			lastDim = dim
		}
		cur[dim] = tor.Wrap(dim, cur[dim]+int(dir))
	}
	if tor.ID(cur) != r.Dst {
		t.Fatalf("route ends at %v, want %v", cur, tor.Coord(r.Dst))
	}
	if got, want := r.Hops(), tor.HopDistance(r.Src, r.Dst); got != want {
		t.Fatalf("route has %d hops, minimal is %d", got, want)
	}
}

func TestDeterministicRouteValid(t *testing.T) {
	tor := mira128()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		src := torus.NodeID(rng.Intn(tor.Size()))
		dst := torus.NodeID(rng.Intn(tor.Size()))
		validateRoute(t, tor, DeterministicRoute(tor, src, dst))
	}
}

func TestDeterministicRouteIsDeterministic(t *testing.T) {
	tor := mira128()
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	a := DeterministicRoute(tor, src, dst)
	b := DeterministicRoute(tor, src, dst)
	if len(a.Links) != len(b.Links) {
		t.Fatal("deterministic route changed length between calls")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatal("deterministic route changed path between calls")
		}
	}
}

func TestDeterministicRouteLongestFirst(t *testing.T) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 16, 2})
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{1, 1, 1, 5, 1})
	r := DeterministicRoute(tor, src, dst)
	// First traversed dimension must be D (extent 16).
	_, dim, _ := tor.LinkFrom(r.Links[0])
	if dim != 3 {
		t.Fatalf("first hop in dimension %d, want 3 (D, the longest)", dim)
	}
	validateRoute(t, tor, r)
}

func TestSelfRouteEmpty(t *testing.T) {
	tor := mira128()
	r := DeterministicRoute(tor, 5, 5)
	if r.Hops() != 0 {
		t.Fatalf("self route has %d hops", r.Hops())
	}
}

func TestRouteWithOrderRespectsOrder(t *testing.T) {
	tor := mira128()
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{1, 1, 2, 2, 1})
	order := []int{4, 3, 2, 1, 0}
	r := RouteWithOrder(tor, src, dst, order)
	validDims := []int{}
	last := -1
	for _, l := range r.Links {
		_, dim, _ := tor.LinkFrom(l)
		if dim != last {
			validDims = append(validDims, dim)
			last = dim
		}
	}
	for i := range validDims {
		if validDims[i] != order[i] {
			t.Fatalf("traversed dims %v, want prefix of %v", validDims, order)
		}
	}
}

func TestAllZonesProduceValidMinimalRoutes(t *testing.T) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 4, 2})
	for z := Zone(0); z <= 3; z++ {
		r, err := NewRouter(tor, z, 42)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(z) + 9))
		for i := 0; i < 100; i++ {
			src := torus.NodeID(rng.Intn(tor.Size()))
			dst := torus.NodeID(rng.Intn(tor.Size()))
			validateRoute(t, tor, r.Route(src, dst))
		}
	}
}

func TestZoneDeterministicStable(t *testing.T) {
	tor := mira128()
	r, _ := NewRouter(tor, ZoneDeterministic, 1)
	a := r.Route(0, 100)
	b := r.Route(0, 100)
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatal("zone 2 route not stable")
		}
	}
}

func TestZoneUnrestrictedVaries(t *testing.T) {
	// On a torus with several long dimensions, zone 1 should eventually
	// produce at least two distinct dimension orders for a far pair.
	tor := torus.MustNew(torus.Shape{4, 4, 4, 4, 4})
	r, _ := NewRouter(tor, ZoneUnrestricted, 7)
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{1, 1, 1, 1, 1})
	first := r.Route(src, dst)
	for i := 0; i < 50; i++ {
		next := r.Route(src, dst)
		if next.Links[0] != first.Links[0] {
			return // saw variation
		}
	}
	t.Fatal("zone 1 produced the same first hop 50 times")
}

func TestInvalidZoneRejected(t *testing.T) {
	if _, err := NewRouter(mira128(), Zone(4), 0); err == nil {
		t.Fatal("zone 4 accepted")
	}
	if _, err := NewRouter(mira128(), Zone(-1), 0); err == nil {
		t.Fatal("zone -1 accepted")
	}
}

func TestSharesLink(t *testing.T) {
	tor := mira128()
	a := DeterministicRoute(tor, 0, torus.NodeID(tor.Size()-1))
	if !SharesLink(a, a) {
		t.Fatal("route does not share links with itself")
	}
	// A route and its reverse use opposite directed links.
	b := DeterministicRoute(tor, torus.NodeID(tor.Size()-1), 0)
	if SharesLink(a, b) {
		t.Fatal("forward and reverse routes share a directed link")
	}
	empty := Route{Src: 3, Dst: 3}
	if SharesLink(a, empty) {
		t.Fatal("empty route shares links")
	}
}

func TestFlexibility(t *testing.T) {
	tor := mira128() // 2x2x4x4x2
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	if got := Flexibility(tor, src, src); got != 0 {
		t.Errorf("self flexibility = %d, want 0", got)
	}
	// Move 1 hop in C (extent 4): traversed (+1) and 2*1 < 4 (+1) = 2.
	d1 := tor.ID(torus.Coord{0, 0, 1, 0, 0})
	if got := Flexibility(tor, src, d1); got != 2 {
		t.Errorf("flexibility 1-hop-C = %d, want 2", got)
	}
	// Move in A (extent 2, hop 1): traversed only = 1.
	d2 := tor.ID(torus.Coord{1, 0, 0, 0, 0})
	if got := Flexibility(tor, src, d2); got != 1 {
		t.Errorf("flexibility 1-hop-A = %d, want 1", got)
	}
}

func TestSelectZoneThresholds(t *testing.T) {
	tor := mira128()
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{0, 0, 1, 1, 0})
	if z := SelectZone(tor, src, dst, 512); z != ZoneFixedOrder {
		t.Errorf("512 B -> %v, want zone 3", z)
	}
	if z := SelectZone(tor, src, dst, 16<<10); z != ZoneDeterministic {
		t.Errorf("16 KB -> %v, want zone 2", z)
	}
	big := SelectZone(tor, src, dst, 1<<20)
	if big != ZoneLongestRandomTies && big != ZoneUnrestricted {
		t.Errorf("1 MB -> %v, want a dynamic zone", big)
	}
}

func TestDescribeRoute(t *testing.T) {
	tor := mira128()
	r := DeterministicRoute(tor, 0, tor.ID(torus.Coord{0, 0, 1, 0, 0}))
	s := DescribeRoute(tor, r)
	if s == "" {
		t.Fatal("empty description")
	}
}

// Property: every zone's route is minimal and valid for random pairs and
// random (feasible) shapes.
func TestPropertyZoneRoutesMinimal(t *testing.T) {
	f := func(shapeRaw [5]uint8, sRaw, dRaw uint16, zRaw uint8) bool {
		shape := make(torus.Shape, 5)
		for i, r := range shapeRaw {
			shape[i] = int(r%4) + 1
		}
		tor := torus.MustNew(shape)
		src := torus.NodeID(int(sRaw) % tor.Size())
		dst := torus.NodeID(int(dRaw) % tor.Size())
		router, err := NewRouter(tor, Zone(zRaw%4), 11)
		if err != nil {
			return false
		}
		r := router.Route(src, dst)
		if r.Hops() != tor.HopDistance(src, dst) {
			return false
		}
		// Walk it.
		cur := tor.Coord(src)
		for _, l := range r.Links {
			from, dim, dir := tor.LinkFrom(l)
			if from != tor.ID(cur) {
				return false
			}
			cur[dim] = tor.Wrap(dim, cur[dim]+int(dir))
		}
		return tor.ID(cur) == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: deterministic routes from a common source to distinct
// destinations reached by opposite first-dimension directions do not share
// their first link.
func TestPropertyOppositeDirectionsDisjointFirstHop(t *testing.T) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 4, 2})
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	plus := tor.ID(torus.Coord{1, 0, 0, 0, 0})
	minus := tor.ID(torus.Coord{3, 0, 0, 0, 0})
	a := DeterministicRoute(tor, src, plus)
	b := DeterministicRoute(tor, src, minus)
	if SharesLink(a, b) {
		t.Fatal("+A and -A one-hop routes share a link")
	}
}

func BenchmarkDeterministicRoute(b *testing.B) {
	tor := torus.MustNew(torus.Shape{4, 4, 8, 16, 2})
	for i := 0; i < b.N; i++ {
		src := torus.NodeID(i % tor.Size())
		dst := torus.NodeID((i * 7) % tor.Size())
		_ = DeterministicRoute(tor, src, dst)
	}
}

func TestForEachPermutationCountsAndStops(t *testing.T) {
	var p Permuter
	p.Reset([]int{0, 1, 2, 3})
	seen := make(map[[4]int]bool)
	for perm, ok := p.Next(); ok; perm, ok = p.Next() {
		seen[[4]int(perm)] = true
	}
	if len(seen) != 24 {
		t.Fatalf("visited %d distinct permutations of 4, want 24", len(seen))
	}
	if _, ok := p.Next(); ok {
		t.Fatal("Next after the last permutation must report false")
	}
	// Heap's order, which fixes the order the leg searches try routes in.
	p.Reset([]int{0, 1, 2})
	want := [][3]int{{0, 1, 2}, {1, 0, 2}, {2, 0, 1}, {0, 2, 1}, {1, 2, 0}, {2, 1, 0}}
	for k, w := range want {
		perm, ok := p.Next()
		if !ok || [3]int(perm) != w {
			t.Fatalf("permutation %d = %v, want %v", k, perm, w)
		}
	}
	// First permutation is the base order, and Reset restarts.
	p.Reset([]int{7, 8, 9})
	first, _ := p.Next()
	if first[0] != 7 || first[1] != 8 || first[2] != 9 {
		t.Fatalf("first permutation %v is not the base order", first)
	}
	n := 1
	for _, ok := p.Next(); ok; _, ok = p.Next() {
		n++
	}
	if n != 6 {
		t.Fatalf("visited %d permutations of 3 after Reset, want 6", n)
	}
	base := []int{4, 0, 3, 1, 2}
	if a := testing.AllocsPerRun(10, func() {
		p.Reset(base)
		for _, ok := p.Next(); ok; _, ok = p.Next() {
		}
	}); a != 0 {
		t.Fatalf("enumerating permutations allocates %.0f objects", a)
	}
}

// TestAppendRouteLinksReusesBuffer checks the allocation-free route
// builder: appending into a reused buffer gives RouteWithOrder's links
// for every order, and allocates nothing once the buffer is large enough.
func TestAppendRouteLinksReusesBuffer(t *testing.T) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 16, 2})
	src, dst := torus.NodeID(5), torus.NodeID(tor.Size()-3)
	buf := make([]int, 0, 64)
	var p Permuter
	p.Reset(tor.DimsByExtentDesc())
	for order, ok := p.Next(); ok; order, ok = p.Next() {
		buf = AppendRouteLinks(buf[:0], tor, src, dst, order)
		if want := RouteWithOrder(tor, src, dst, order).Links; !slices.Equal(buf, want) {
			t.Fatalf("order %v: links %v, want %v", order, buf, want)
		}
	}
	order := tor.DimsByExtentDesc()
	if a := testing.AllocsPerRun(10, func() {
		buf = AppendRouteLinks(buf[:0], tor, src, dst, order)
	}); a != 0 {
		t.Fatalf("AppendRouteLinks into a large enough buffer allocates %.0f objects", a)
	}
}
