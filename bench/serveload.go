package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
)

// planner is the client surface the serve workloads drive: a
// *serve.Client for one daemon, a *serve.RingClient for the cluster,
// or a fake in the tests.
type planner interface {
	PlanPair(context.Context, serve.PairRequest) (serve.PlanResult, error)
	PlanAgg(context.Context, serve.AggRequest) (serve.PlanResult, error)
}

// serveEnv is one set-up serve workload: its request stream, its
// daemons, the client the load goes through, and what verification
// needs to remember about the responses.
type serveEnv struct {
	r    *run
	kind string
	// mix is the hot mix (serve-hot, serve-faults); aggs are
	// serve-faults' few cacheable agg requests; stream is serve-cold's
	// timed requests, each distinct.
	mix    []serve.PairRequest
	aggs   []serve.AggRequest
	stream []coldOp

	daemons []*daemon
	metrics func(context.Context) (serverCounts, error)
	ring    *serve.RingClient
	pl      planner

	// first holds, per hot-mix request, the first plan served for it
	// (serve-hot); kept holds every sampleEvery-th response (serve-cold,
	// serve-faults), up to its preallocated capacity.
	first  []atomic.Pointer[[]byte]
	keptMu sync.Mutex
	kept   []keptResponse

	// serve-faults' fault sequence: posted[k] is the k-th event and
	// acked[k] the fault-epoch vector the cluster acknowledged it at.
	faultMu sync.Mutex
	gen     *faultGen
	posted  []serve.FaultEvent
	acked   []cluster.Vector

	// Traced runs only: client retries, and the queue and compute phase
	// times of every response that computed its plan.
	retries   atomic.Int64
	phaseMu   sync.Mutex
	queueMS   []float64
	computeMS []float64
}

// keptResponse is a sampled response kept for verification. It keeps
// a digest of the plan, not the plan, so the harness's heap does not
// grow through the timed window.
type keptResponse struct {
	o        op
	demanded string // fault-epoch vector the client demanded
	served   string // fault-epoch vector the response was served at
	sum      uint64
}

// maxKept bounds the responses kept for verification.
const maxKept = 8192

var digestSeed = maphash.MakeSeed()

func digest(plan []byte) uint64 { return maphash.Bytes(digestSeed, plan) }

// serverCounts are the daemon counters the traced run reports.
type serverCounts struct{ requests, hits, computed, shed int64 }

func (a serverCounts) minus(b serverCounts) serverCounts {
	return serverCounts{a.requests - b.requests, a.hits - b.hits, a.computed - b.computed, a.shed - b.shed}
}

func countsOf(s obs.MetricsSnapshot) serverCounts {
	return serverCounts{
		requests: s.Counters["serve/requests"],
		hits:     s.Counters["serve/cache_hits"],
		computed: s.Counters["serve/plans_computed"],
		shed:     s.Counters["serve/shed"],
	}
}

// setServerCounts reports the daemons' counters over a load window and
// the client-side retries and stale responses seen in it.
func setServerCounts(r *run, d serverCounts, retries, stale int64) {
	r.set("serve.cache_hit_ratio", float64(d.hits)/float64(d.requests), "ratio")
	r.set("serve.plans_computed", float64(d.computed), "count")
	r.set("serve.shed", float64(d.shed), "count")
	r.set("cluster.retries", float64(retries), "count")
	r.set("cluster.stale_served", float64(stale), "count")
}

// rate is the workload's open-loop arrival rate.
func (env *serveEnv) rate() float64 {
	switch env.kind {
	case "serve-hot":
		return env.r.sc.hotRate
	case "serve-cold":
		return env.r.sc.coldRate
	}
	return env.r.sc.faultRate
}

// newServeEnv generates the workload's inputs from the seed, starts its
// daemons and warms them: one set-up round.
func newServeEnv(ctx context.Context, r *run) (*serveEnv, error) {
	env := &serveEnv{r: r, kind: r.workload, kept: make([]keptResponse, 0, maxKept)}
	sc := r.sc
	var err error
	switch env.kind {
	case "serve-cold":
		// Enough distinct requests for the warm-up and a closed loop at
		// twice serve-cold's capacity (coldRate is about a quarter of it);
		// past that the stream wraps, long after the repeats have left
		// the cache.
		n := int(8*sc.coldRate*(sc.warmup+r.window).Seconds()) + 1
		all, err := coldStream(r.seed, sc, sc.coldWarm+n)
		if err != nil {
			return nil, err
		}
		env.stream = all[sc.coldWarm:]
		warm := make([]op, sc.coldWarm)
		for i, c := range all[:sc.coldWarm] {
			warm[i] = c.op(sc)
		}
		d, c, err := startDaemon(serve.Config{CacheEntriesPerShard: coldCachePerShard})
		if err != nil {
			return nil, err
		}
		env.daemons, env.pl = []*daemon{d}, c
		env.metrics = clientCounts(c)
		if err := env.warm(ctx, warm); err != nil {
			env.close()
			return nil, err
		}
		return env, nil
	case "serve-faults":
		if env.gen, err = newFaultGen(r.seed, sc.hotShape); err != nil {
			return nil, err
		}
		for k := 0; k < 4; k++ {
			env.aggs = append(env.aggs, aggRequest(sc.hotShape, subSeed(r.seed, "agg", k)))
		}
	}
	if env.mix, err = hotMix(r.seed, sc.hotShape, sc.mixSize); err != nil {
		return nil, err
	}
	env.first = make([]atomic.Pointer[[]byte], len(env.mix))
	warm := make([]op, 0, len(env.mix)+len(env.aggs))
	for i := range env.mix {
		warm = append(warm, op{pair: &env.mix[i]})
	}
	for i := range env.aggs {
		warm = append(warm, op{agg: &env.aggs[i]})
	}
	if env.kind == "serve-faults" {
		ds, rc, err := startCluster(r.seed)
		if err != nil {
			return nil, err
		}
		env.daemons, env.ring, env.pl = ds, rc, rc
		env.metrics = ringCounts(rc)
	} else {
		d, c, err := startDaemon(serve.Config{})
		if err != nil {
			return nil, err
		}
		env.daemons, env.pl = []*daemon{d}, c
		env.metrics = clientCounts(c)
	}
	if err := env.warm(ctx, warm); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func clientCounts(c *serve.Client) func(context.Context) (serverCounts, error) {
	return func(ctx context.Context) (serverCounts, error) {
		s, err := c.Metrics(ctx)
		return countsOf(s), err
	}
}

func ringCounts(rc *serve.RingClient) func(context.Context) (serverCounts, error) {
	return func(ctx context.Context) (serverCounts, error) {
		all := rc.MetricsAll(ctx)
		if len(all) != replicas {
			return serverCounts{}, fmt.Errorf("bench: metrics from %d of %d replicas", len(all), replicas)
		}
		var sum serverCounts
		for _, s := range all {
			c := countsOf(s)
			sum = serverCounts{sum.requests + c.requests, sum.hits + c.hits, sum.computed + c.computed, sum.shed + c.shed}
		}
		return sum, nil
	}
}

// warm sends each op once, untimed: it fills the plan cache on the hot
// workloads and brings serve-cold's daemon, connections and heap to a
// steady state.
func (env *serveEnv) warm(ctx context.Context, ops []op) error {
	for i, o := range ops {
		res, err := env.send(ctx, o)
		if err == nil && !res.OK() {
			err = fmt.Errorf("status %d: %s", res.Status, res.Err)
		}
		if err != nil {
			return fmt.Errorf("bench: warm-up request %d: %w", i, err)
		}
	}
	return nil
}

func (env *serveEnv) close() { closeAll(env.daemons) }

func (env *serveEnv) send(ctx context.Context, o op) (serve.PlanResult, error) {
	if o.agg != nil {
		return env.pl.PlanAgg(ctx, *o.agg)
	}
	return env.pl.PlanPair(ctx, *o.pair)
}

// opAt is request i of the timed stream. Hot-mix requests are drawn
// uniformly at random (seeded), so serve-faults repeats some requests
// between two faults and its cache hits depend on invalidation.
func (env *serveEnv) opAt(i int) op {
	switch env.kind {
	case "serve-hot":
		return op{pair: &env.mix[env.pick(i)]}
	case "serve-cold":
		return env.stream[i%len(env.stream)].op(env.r.sc)
	}
	if i%(faultEvery+1) == faultEvery {
		return op{fault: true}
	}
	j := i - i/(faultEvery+1)
	if j%aggEvery == aggEvery-1 {
		return op{agg: &env.aggs[(j/aggEvery)%len(env.aggs)]}
	}
	return op{pair: &env.mix[env.pick(j)]}
}

// pick is the hot-mix index of request i: a splitmix64 hash of the
// seed and i.
func (env *serveEnv) pick(i int) int {
	x := uint64(env.r.seed)*0x9e3779b97f4a7c15 + uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(env.mix)))
}

// do runs request i and checks what can be checked at once.
func (env *serveEnv) do(ctx context.Context, i int) outcome {
	o := env.opAt(i)
	if o.fault {
		end, err := env.postFault(ctx)
		return outcome{kind: opFault, end: end, err: err}
	}
	sampled := i%sampleEvery == 0
	var demanded string
	if env.ring != nil && sampled {
		demanded = env.ring.MinVector()
	}
	res, err := env.send(ctx, o)
	end := time.Now()
	if err == nil && !res.OK() {
		err = fmt.Errorf("request %d: status %d: %s", i, res.Status, res.Err)
	}
	if err != nil {
		return outcome{end: end, err: err}
	}
	if env.r.traced {
		env.retries.Add(int64(res.Retries))
		if !res.Cached && !res.Coalesced {
			env.phaseMu.Lock()
			env.queueMS = append(env.queueMS, res.QueueMS)
			env.computeMS = append(env.computeMS, res.ComputeMS)
			env.phaseMu.Unlock()
		}
	}
	switch {
	case env.kind == "serve-hot":
		err = env.sameAsFirst(env.pick(i), res.Plan)
	case sampled:
		env.keptMu.Lock()
		if len(env.kept) < cap(env.kept) {
			env.kept = append(env.kept, keptResponse{o: o, demanded: demanded, served: res.Vector, sum: digest(res.Plan)})
		}
		env.keptMu.Unlock()
	}
	return outcome{end: end, err: err}
}

// sameAsFirst keeps the first plan served for hot-mix request k and
// fails any later response that differs from it.
func (env *serveEnv) sameAsFirst(k int, plan []byte) error {
	slot := &env.first[k]
	if slot.CompareAndSwap(nil, &plan) {
		return nil
	}
	if !bytes.Equal(*slot.Load(), plan) {
		return fmt.Errorf("hot-mix request %d: response differs from the first one served", k)
	}
	return nil
}

// postFault posts the next event of the seeded fault sequence. Posts
// are serialized, so the acknowledged vectors grow one event at a time
// and map every served vector back to a prefix of the sequence.
func (env *serveEnv) postFault(ctx context.Context) (time.Time, error) {
	env.faultMu.Lock()
	defer env.faultMu.Unlock()
	ev := env.gen.next()
	_, err := env.ring.Fault(ctx, ev)
	end := time.Now()
	if err != nil {
		return end, fmt.Errorf("fault event %d: %w", len(env.posted), err)
	}
	v, err := cluster.ParseVector(env.ring.MinVector())
	if err != nil {
		return end, fmt.Errorf("fault event %d: %w", len(env.posted), err)
	}
	env.posted = append(env.posted, ev)
	env.acked = append(env.acked, v)
	return end, nil
}

// expected is the plan a direct, single-threaded planner call produces.
func expected(o op, faults []scenario.FailLink) ([]byte, error) {
	if o.agg != nil {
		p, err := serve.ComputeAgg(*o.agg, faults)
		if err != nil {
			return nil, err
		}
		return json.Marshal(p)
	}
	p, err := serve.ComputePair(*o.pair, faults)
	if err != nil {
		return nil, err
	}
	return json.Marshal(p)
}

// covered is how many posted fault events the vector v has applied.
func (env *serveEnv) covered(v string) (int, error) {
	vec, err := cluster.ParseVector(v)
	if err != nil {
		return 0, err
	}
	k := 0
	for k < len(env.acked) && vec.Dominates(env.acked[k]) {
		k++
	}
	return k, nil
}

// verify recomputes served plans with direct planner calls, after the
// timed phases. serve-hot checks the first response to every mix
// request (later ones were compared with it as they arrived);
// serve-cold checks the kept sample; serve-faults checks the kept
// sample against the fault set of every prefix of the acknowledged
// fault sequence between the vector the client demanded and the one
// the response was served at, and requires the ring client to have
// seen no stale response.
func (env *serveEnv) verify(r *run) {
	switch env.kind {
	case "serve-hot":
		for k := range env.first {
			got := env.first[k].Load()
			if got == nil {
				continue
			}
			want, err := expected(op{pair: &env.mix[k]}, nil)
			if err == nil && !bytes.Equal(*got, want) {
				err = fmt.Errorf("hot-mix request %d: served plan differs from a direct ComputePair", k)
			}
			r.check(err)
		}
	case "serve-cold":
		for _, k := range env.kept {
			want, err := expected(k.o, nil)
			if err == nil && digest(want) != k.sum {
				err = fmt.Errorf("served plan differs from a direct planner call: %s", describe(k.o))
			}
			r.check(err)
		}
	case "serve-faults":
		for _, k := range env.kept {
			r.check(env.checkFaulted(k))
		}
		r.check(staleErr(env.ring.StaleServed()))
	}
}

func (env *serveEnv) checkFaulted(k keptResponse) error {
	lo, err := env.covered(k.demanded)
	if err != nil {
		return err
	}
	hi, err := env.covered(k.served)
	if err != nil {
		return err
	}
	for j := hi; j >= lo; j-- {
		want, err := expected(k.o, faultsAfter(env.posted, j))
		if err == nil && digest(want) == k.sum {
			return nil
		}
	}
	return fmt.Errorf("plan served at vector %q matches no fault set from %d to %d events: %s", k.served, lo, hi, describe(k.o))
}

func staleErr(n int64) error {
	if n != 0 {
		return fmt.Errorf("ring client saw %d stale responses", n)
	}
	return nil
}

func describe(o op) string {
	if o.agg != nil {
		return fmt.Sprintf("agg %+v", *o.agg)
	}
	return fmt.Sprintf("pair %+v", *o.pair)
}

// runServe runs serve-hot, serve-cold or serve-faults.
func runServe(ctx context.Context, r *run) error {
	var (
		env    *serveEnv
		setups []float64
	)
	for start := time.Now(); len(setups) < r.sc.setupRounds || time.Since(start) < r.sc.setupTime; {
		if env != nil {
			env.close()
		}
		// Each round starts on a collected heap, so none is charged for
		// collecting its predecessor.
		runtime.GC()
		t0 := time.Now()
		var err error
		if env, err = newServeEnv(ctx, r); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()
	if r.wrap != nil {
		env.pl = r.wrap(env.pl)
	}
	if r.traced {
		return env.traced(ctx, r.window/2)
	}
	// The end-to-end numbers come from a closed loop of nproc clients:
	// on a small VM an open loop at low utilization swings between Go
	// scheduler regimes (see README.md), which makes its latency too
	// unsteady to gate on. The traced run still drives the open loop.
	// An untimed closed loop first brings connections, caches and the
	// collector's pacing to the state the timed window runs in.
	warm := closedLoop(ctx, r.sc.warmup, r.workers, 0, env.do)
	r.absorb(warm)
	closed := closedLoop(ctx, r.window, r.workers, warm.next, env.do)
	r.absorb(closed)
	env.verify(r)
	r.set("latency_p50_ms", closed.plans.quantileMS(0.5), "ms")
	r.set("latency_p99_ms", closed.plans.quantileMS(0.99), "ms")
	r.set("throughput_per_s", float64(closed.plans.n)/closed.elapsed.Seconds(), "1/s")
	r.set("setup_s", median(setups), "s")
	return nil
}

// traced is a serve workload's per-layer run: an untraced open loop
// (the window the per-layer load metrics describe), the same open loop
// again with a span per request, verification, then the layer pass.
func (env *serveEnv) traced(ctx context.Context, half time.Duration) error {
	r := env.r
	before, err := env.metrics(ctx)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	base, err := openLoop(ctx, env.rate(), half, r.workers, 0, env.do, nil)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	after, err := env.metrics(ctx)
	if err != nil {
		return err
	}
	withSpans, err := openLoop(ctx, env.rate(), half, r.workers, base.next, env.do, r.rec)
	if err != nil {
		return err
	}
	r.absorb(base)
	r.absorb(withSpans)
	env.verify(r)

	p50 := base.plans.quantileMS(0.5)
	r.set("bench.trace_overhead_pct", (withSpans.plans.quantileMS(0.5)-p50)/p50*100, "%")
	r.set("bench.send_lag_p99_ms", base.lags.quantileMS(0.99), "ms")
	r.set("process.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(base.attempted), "B")
	r.set("process.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	var stale int64
	if env.ring != nil {
		stale = env.ring.StaleServed()
	}
	setServerCounts(r, after.minus(before), env.retries.Load(), stale)

	in := passInput{
		p50ms:     p50,
		queueMS:   env.queueMS,
		computeMS: env.computeMS,
		acks:      append(base.faults, withSpans.faults...),
		ring:      env.ring != nil,
		faults:    env.posted,
	}
	// The pass times pairs and aggs taken from the workload: serve-cold's
	// first requests, the others' mix.
	cold := env.kind == "serve-cold"
	for i := 0; i < base.next && len(in.stream) < maxFeed; i++ {
		switch o := env.opAt(i); {
		case o.pair != nil:
			in.stream = append(in.stream, *o.pair)
			if cold && len(in.pairs) < r.sc.passPairs {
				in.pairs = append(in.pairs, *o.pair)
			}
		case o.agg != nil && cold && len(in.aggs) < 4:
			in.aggs = append(in.aggs, *o.agg)
		}
	}
	if !cold {
		step := max(1, len(env.mix)/r.sc.passPairs)
		for k := 0; k < len(env.mix) && len(in.pairs) < r.sc.passPairs; k += step {
			in.pairs = append(in.pairs, env.mix[k])
		}
		in.aggs = env.aggs
	}
	return layerPass(ctx, r, in)
}
