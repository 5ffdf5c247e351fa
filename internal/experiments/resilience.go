package experiments

import (
	"fmt"

	"bgqflow/internal/core"
	"bgqflow/internal/faultinject"
	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/routing"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// R1 is the resilience sweep: a fixed 64 MB transfer across the 128-node
// partition while a seeded targeted fault campaign fails an increasing
// number of links mid-transfer. Three strategies run against the same
// campaign: the default direct path (no recovery — a failure on its
// single route loses everything), the proxied transfer without recovery
// (failures cost exactly the pieces whose legs die), and the proxied
// transfer with the detect -> replan -> degrade loop (which must deliver
// every byte as long as the torus stays connected). The campaign pool is
// adversarial: it always includes a direct-route link first, then the
// rest of the direct route and the first hops of every initially
// selected proxy leg.

// r1Seed fixes the fault campaigns; the sweep is deterministic.
const r1Seed = 1971

// r1Window is the injection window: failures land inside the first
// transfer's flight time (64 MB at ~1.8 GB/s is ~36 ms).
const r1Window sim.Time = 20e-3

// R1Mode is one strategy's outcome at one sweep point.
type R1Mode struct {
	// DeliveredFrac is the fraction of requested bytes that reached the
	// destination.
	DeliveredFrac float64
	// GBps is delivered bytes over the time the last delivered byte
	// landed (0 when nothing arrived). For the recovery strategy the
	// denominator includes detection timeouts and backoff.
	GBps float64
	// Replans counts recovery waves (always 0 without recovery).
	Replans int
}

// R1Point is one sweep point: the same campaign run under each strategy.
type R1Point struct {
	FailedLinks int
	Direct      R1Mode
	ProxyNoRec  R1Mode
	ProxyRec    R1Mode
}

// R1Result is the full resilience sweep.
type R1Result struct {
	Shape  torus.Shape
	Bytes  int64
	Seed   int64
	Fails  []int
	Points []R1Point
}

// r1FailCounts returns the sweep's failed-link counts.
func r1FailCounts(quick bool) []int {
	if quick {
		return []int{0, 2, 8}
	}
	return []int{0, 1, 2, 4, 8, 16}
}

// r1Pool builds the adversarial link pool for one geometry: a mid-route
// direct link first (TargetedLinks guarantees pool[0] is always hit),
// then the rest of the direct route, then the first hop of every leg of
// every initially selected proxy.
func r1Pool(tor *torus.Torus, src, dst torus.NodeID, cfg core.ProxyConfig) []int {
	def := routing.DeterministicRoute(tor, src, dst)
	pool := []int{def.Links[len(def.Links)/2]}
	pool = append(pool, def.Links...)
	pl, err := core.NewPairPlanner(tor, cfg)
	if err == nil {
		for _, pr := range pl.SelectProxies(src, dst) {
			pool = append(pool, pr.Leg1.Links[0], pr.Leg2.Links[0])
		}
	}
	return pool
}

// r1Campaign builds the seeded campaign for one sweep point.
func r1Campaign(tor *torus.Torus, src, dst torus.NodeID, cfg core.ProxyConfig, fails int) *faultinject.Campaign {
	if fails == 0 {
		return &faultinject.Campaign{Name: "none", Seed: r1Seed}
	}
	pool := r1Pool(tor, src, dst, cfg)
	return faultinject.TargetedLinks(r1Seed+int64(fails), pool, fails, r1Window)
}

// deliveredOutcome tallies a batch run's finals: bytes landed (a done
// final's Bytes is its piece) and the landing time of the last of them.
func deliveredOutcome(e *netsim.Engine, finals []netsim.FlowID) (delivered int64, last sim.Time) {
	for _, id := range finals {
		res := e.Result(id)
		if res.Done {
			delivered += res.Bytes
			if res.Completed > last {
				last = res.Completed
			}
		}
	}
	return delivered, last
}

func r1ModeResult(delivered, total int64, last sim.Duration, replans int) R1Mode {
	m := R1Mode{DeliveredFrac: float64(delivered) / float64(total), Replans: replans}
	if delivered > 0 && last > 0 {
		m.GBps = netsim.Throughput(delivered, last) / 1e9
	}
	return m
}

// r1Observe attaches the sweep recorder (when present) to a strategy
// engine and returns a flush that publishes the run's route-cache
// counters into the registry. Tracks are per point and strategy
// ("r1/fail8/recovery"), so parallel sweep points never share a track.
func r1Observe(rec *obs.Recorder, e *netsim.Engine, track string) (flush func()) {
	if rec == nil {
		return func() {}
	}
	e.SetSink(rec.EngineSink(track, nil))
	return func() {
		hits, misses, invals := e.Network().RouteCache().Counts()
		reg := rec.Registry()
		reg.Counter("routing/cache/hits").Add(int64(hits))
		reg.Counter("routing/cache/misses").Add(int64(misses))
		reg.Counter("routing/cache/invalidations").Add(int64(invals))
	}
}

// r1Direct runs the default single-path transfer under the campaign.
func r1Direct(tor *torus.Torus, c *faultinject.Campaign, src, dst torus.NodeID, bytes int64, rec *obs.Recorder, track string, hook func(*netsim.Engine)) (R1Mode, error) {
	e, err := newEngine(tor, hook)
	if err != nil {
		return R1Mode{}, err
	}
	defer r1Observe(rec, e, track)()
	id := e.Submit(netsim.FlowSpec{Src: src, Dst: dst, Bytes: bytes, Label: "r1/direct"})
	if err := c.Apply(e); err != nil {
		return R1Mode{}, err
	}
	if _, err := e.Run(); err != nil {
		return R1Mode{}, err
	}
	delivered, last := deliveredOutcome(e, []netsim.FlowID{id})
	addSimTime(sim.Duration(last))
	return r1ModeResult(delivered, bytes, sim.Duration(last), 0), nil
}

// r1ProxyNoRecovery runs the paper's proxied transfer with no recovery:
// pieces whose legs cross a failed link abort and stay lost.
func r1ProxyNoRecovery(tor *torus.Torus, cfg core.ProxyConfig, c *faultinject.Campaign, src, dst torus.NodeID, bytes int64, rec *obs.Recorder, track string, hook func(*netsim.Engine)) (R1Mode, error) {
	e, err := newEngine(tor, hook)
	if err != nil {
		return R1Mode{}, err
	}
	defer r1Observe(rec, e, track)()
	pl, err := core.NewPairPlanner(tor, cfg)
	if err != nil {
		return R1Mode{}, err
	}
	plan, err := pl.PlanPair(e, src, dst, bytes)
	if err != nil {
		return R1Mode{}, err
	}
	if err := c.Apply(e); err != nil {
		return R1Mode{}, err
	}
	if _, err := e.Run(); err != nil {
		return R1Mode{}, err
	}
	delivered, last := deliveredOutcome(e, plan.Final)
	addSimTime(sim.Duration(last))
	return r1ModeResult(delivered, bytes, sim.Duration(last), 0), nil
}

// r1ProxyRecovery runs the resilient transfer loop under the campaign.
func r1ProxyRecovery(tor *torus.Torus, cfg core.ProxyConfig, c *faultinject.Campaign, src, dst torus.NodeID, bytes int64, rec *obs.Recorder, track string, hook func(*netsim.Engine)) (R1Mode, error) {
	e, err := newEngine(tor, hook)
	if err != nil {
		return R1Mode{}, err
	}
	defer r1Observe(rec, e, track)()
	pl, err := core.NewPairPlanner(tor, cfg)
	if err != nil {
		return R1Mode{}, err
	}
	e.BeginInteractive()
	if err := c.Apply(e); err != nil {
		return R1Mode{}, err
	}
	rc := core.DefaultRecoveryConfig()
	rc.Recorder, rc.Track = rec, track
	// A cut torus or exhausted retries still reports partial bytes; the
	// sweep records the degraded point rather than failing.
	rep, _ := pl.MoveResilient(e, src, dst, bytes, rc)
	addSimTime(rep.Makespan)
	return r1ModeResult(rep.Delivered, bytes, rep.Makespan, rep.Replans), nil
}

// R1 runs the resilience sweep: throughput and completion rate vs number
// of failed links for direct / proxy-no-recovery / proxy-with-recovery,
// all three against the same seeded campaign at every point.
func R1(opt Options) (R1Result, error) {
	shape := torus.Shape{2, 2, 4, 4, 2}
	tor, err := torus.New(shape)
	if err != nil {
		return R1Result{}, err
	}
	cfg := core.DefaultProxyConfig()
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	const bytes = 64 << 20

	fails := r1FailCounts(opt.Quick)
	res := R1Result{Shape: shape, Bytes: bytes, Seed: r1Seed, Fails: fails}
	res.Points = make([]R1Point, len(fails))
	err = forEachPoint(opt, len(fails), func(i int) error {
		n := fails[i]
		pt := R1Point{FailedLinks: n}
		var err error
		track := func(strategy string) string { return fmt.Sprintf("r1/fail%d/%s", n, strategy) }
		// Each strategy gets its own fresh network and an identical
		// campaign (campaigns are pure values; Apply re-schedules them).
		if pt.Direct, err = r1Direct(tor, r1Campaign(tor, src, dst, cfg, n), src, dst, bytes, opt.Obs, track("direct"), opt.EngineHook); err != nil {
			return err
		}
		if pt.ProxyNoRec, err = r1ProxyNoRecovery(tor, cfg, r1Campaign(tor, src, dst, cfg, n), src, dst, bytes, opt.Obs, track("norec"), opt.EngineHook); err != nil {
			return err
		}
		if pt.ProxyRec, err = r1ProxyRecovery(tor, cfg, r1Campaign(tor, src, dst, cfg, n), src, dst, bytes, opt.Obs, track("recovery"), opt.EngineHook); err != nil {
			return err
		}
		res.Points[i] = pt
		return nil
	})
	return res, err
}
