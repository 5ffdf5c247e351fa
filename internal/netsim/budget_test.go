package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// Work-budget tests: an incremental sweep always gets incFreeRounds
// rounds, and after that runs on only while its dirty-set sizes, summed
// over its rounds, stay within the active flow count (DESIGN.md §13).

// drawSimFlows draws n flows from seed the way the sim-mira benchmark
// draws a flow set: flow r leaves node r mod N; 70% are halo exchanges
// 1-3 hops along one dimension, the rest uniform long-haul; sizes are
// log-uniform over 256 KiB-2 MiB and releases jitter over 2 ms.
func drawSimFlows(seed int64, tor *torus.Torus, n int) []FlowSpec {
	const jitter = 2e-3
	rng := rand.New(rand.NewSource(seed))
	nodes := tor.Size()
	flows := make([]FlowSpec, n)
	c := make(torus.Coord, tor.Dims())
	for r := range flows {
		src := torus.NodeID(r % nodes)
		var dst torus.NodeID
		if rng.Intn(10) < 7 {
			tor.CoordInto(src, c)
			d := rng.Intn(tor.Dims())
			c[d] += 1 + rng.Intn(3)
			dst = tor.ID(c)
		} else {
			dst = torus.NodeID(rng.Intn(nodes))
		}
		if dst == src {
			dst = (dst + 1) % torus.NodeID(nodes)
		}
		flows[r] = FlowSpec{
			Src: src, Dst: dst, Bytes: int64(256<<10) << uint(rng.Intn(4)),
			ExtraDelay: sim.Duration(rng.Float64() * jitter),
		}
	}
	return flows
}

// requireCloseRuns diffs two finished engines whose sweeps summed loads
// in different orders: every flow's outcome must match and its timeline
// agree to relTol, and so must every link's byte counter.
func requireCloseRuns(t *testing.T, a, b *Engine, relTol float64) {
	t.Helper()
	if a.NumFlows() != b.NumFlows() {
		t.Fatalf("flow counts diverged: %d vs %d", a.NumFlows(), b.NumFlows())
	}
	for i := 0; i < a.NumFlows(); i++ {
		ra, rb := a.Result(FlowID(i)), b.Result(FlowID(i))
		if ra.Done != rb.Done || ra.Aborted != rb.Aborted || ra.Bytes != rb.Bytes {
			t.Fatalf("flow %d outcome diverged:\n%+v\n%+v", i, ra, rb)
		}
		for _, x := range [][2]sim.Time{
			{ra.Released, rb.Released}, {ra.Activated, rb.Activated},
			{ra.TransferEnd, rb.TransferEnd}, {ra.Completed, rb.Completed},
		} {
			approx(t, fmt.Sprintf("flow %d timeline", i), float64(x[0]), float64(x[1]), relTol)
		}
	}
	ab, bb := a.LinkBytes(), b.LinkBytes()
	for l := range ab {
		approx(t, fmt.Sprintf("link %d bytes", l), ab[l], bb[l], relTol)
	}
}

// TestWorkBudgetConvergesPastFreeRounds runs a seeded flow set, drawn
// the way the sim-mira benchmark draws one, on which a sweep needs ten
// rounds. A fixed cap of incFreeRounds rounds would re-level the whole
// machine there; under the budget the sweep converges incrementally,
// no sweep falls back, and the run agrees with the full re-level twin.
func TestWorkBudgetConvergesPastFreeRounds(t *testing.T) {
	flows := drawSimFlows(5, mira128(), 2048)
	inc, full := twinRun(t, DefaultParams(), func(e *Engine) {
		e.Reserve(len(flows))
		for _, f := range flows {
			e.Submit(f)
		}
	})
	if inc.maxRounds <= incFreeRounds {
		t.Fatalf("deepest sweep ran %d rounds; the case needs more than %d", inc.maxRounds, incFreeRounds)
	}
	if f, _ := inc.SweepStats(); f != 0 {
		t.Fatalf("%d full re-levels; every sweep should converge within the budget", f)
	}
	requireCloseRuns(t, inc, full, 1e-9)
}

// roundLog is a sweepLog that also records, at each sweep, the most
// rounds any sweep of e has run so far.
type roundLog struct {
	sweepLog
	e      *Engine
	rounds []int
}

func (r *roundLog) SweepDone(now sim.Time, flows, links int, full bool) {
	r.sweepLog.SweepDone(now, flows, links, full)
	r.rounds = append(r.rounds, r.e.maxRounds)
}

// chainNetwork returns a network with extra links of the given
// capacities appended, and their IDs. Extra links must exist before an
// engine is built over the network.
func chainNetwork(caps []float64) (*Network, []int) {
	p := DefaultParams()
	net := NewNetwork(mira128(), p.LinkBandwidth)
	ids := make([]int, len(caps))
	for i, c := range caps {
		ids[i] = net.AddLink(fmt.Sprintf("chain%d", i), c)
	}
	return net, ids
}

// TestWorkBudgetStopsRunawaySweep pins the budget's other side: a sweep
// whose dirty set keeps growing still falls back and terminates. Chain
// flows C_i (i = 1..n) ride links {L_i-1, L_i}; with L_0 = u and
// L_i = (2i+1)u the max-min rates are C_i = i·u, each link saturated.
// One arrival X on L_0 moves every rate by u/2, and the audits discover
// that one chain flow per round. The dirty-set sizes 2, 3, 4, ...
// summed first exceed the n+1 active flows when a thirteenth round (14
// flows) would start: the sweep falls back after 12 rounds, past the
// free rounds, and the run still agrees with the full twin.
func TestWorkBudgetStopsRunawaySweep(t *testing.T) {
	const n, u = 100, 1e6
	const late = 1e-3 // X's extra delay
	caps := make([]float64, n+1)
	caps[0] = u
	for i := 1; i < n; i++ {
		caps[i] = float64(2*i+1) * u
	}
	caps[n] = float64(n+1) * u
	p := DefaultParams()
	var runs [2]*Engine
	var xFull bool  // the incremental engine's arrival sweep fell back
	var xRounds int // rounds it ran first
	for i, fullOnly := range []bool{false, true} {
		net, L := chainNetwork(caps)
		e, err := NewEngine(net, p)
		if err != nil {
			t.Fatal(err)
		}
		e.fullOnly = fullOnly
		for c := 1; c <= n; c++ {
			e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: 1 << 30, Links: []int{L[c-1], L[c]}})
		}
		e.Submit(FlowSpec{Src: 2, Dst: 3, Bytes: 1 << 20, Links: []int{L[0]}, ExtraDelay: late})
		arrival := sim.Time(p.SenderOverhead + late)
		sl := &roundLog{e: e}
		e.SetSink(sl)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for k, at := range sl.times {
			if at == arrival && !fullOnly {
				xFull, xRounds = sl.full[k], sl.rounds[k]
			}
		}
		runs[i] = e
	}
	if !xFull {
		t.Fatal("the arrival sweep converged incrementally; the chain should exhaust its budget")
	}
	if xRounds != 12 {
		t.Fatalf("the arrival sweep ran %d rounds, want 12: sizes 2..14 sum past the %d active flows", xRounds, n+1)
	}
	requireCloseRuns(t, runs[0], runs[1], 1e-9)
}

// TestZeroRateSolveFallsBack reaches the incremental sweep's zero-rate
// fallback. It needs capacities below the audits' absolute tolerance
// (1e-15 bytes/second): there no outside rate clears the squeeze
// ceiling, so a restricted solve can converge with a dirty flow at zero.
// z = 1e-16, w = 2e-16 and y = 1e-40 bytes/second carry D {z, w}, A
// {y, z}, F {w} and G {y}, activating in that order a second apart:
//
//   - D alone takes z's 1e-16; A's arrival levels D and A at y's 1e-40;
//   - F's arrival re-levels F and D only, with A pinned outside: D takes
//     z's 1e-16 - 1e-40, which rounds to z's whole capacity;
//   - G's arrival re-levels G and A with D pinned: z has nothing left,
//     A and G solve to zero, and no audit fires.
//
// The fallback re-levels the component, so every flow gets a rate and
// completes; without it applyRates panics on the zero rate.
func TestZeroRateSolveFallsBack(t *testing.T) {
	net, L := chainNetwork([]float64{1e-16, 2e-16, 1e-40})
	z, w, y := L[0], L[1], L[2]
	p := DefaultParams()
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, links := range [][]int{{z, w}, {y, z}, {w}, {y}} {
		e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: 1, Links: links, ExtraDelay: sim.Duration(i)})
	}
	gArrival := sim.Time(p.SenderOverhead + 3)
	sl := &sweepLog{}
	e.SetSink(sl)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var gFull bool
	for k, at := range sl.times {
		if at == gArrival {
			gFull = sl.full[k]
		}
	}
	if !gFull {
		t.Fatal("G's arrival sweep did not fall back to a full re-level")
	}
	if e.maxRounds >= incFreeRounds {
		t.Fatalf("a sweep ran %d rounds: the fallback must come from the zero rate, not the budget", e.maxRounds)
	}
	if done, aborted := e.Outcomes(); done != 4 || aborted != 0 {
		t.Fatalf("%d flows done, %d aborted; want all 4 done", done, aborted)
	}
	for i := 0; i < 4; i++ {
		if r := e.Result(FlowID(i)); math.IsInf(float64(r.Completed), 0) || r.Completed <= 0 {
			t.Fatalf("flow %d completed at %g", i, float64(r.Completed))
		}
	}
}
