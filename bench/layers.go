package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/serve"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// The per-layer pass runs after a traced run's load phases, while the
// workload's daemons are idle. It times each layer from outside, by
// calling the layer's public functions on requests taken from the
// workload, and reports every timing with the heap bytes and
// allocations per call (runtime.MemStats deltas).

// sample is one timed batch of n calls.
type sample struct {
	begin, end    time.Time
	n             int
	bytes, allocs uint64
}

func (s sample) perCall() time.Duration { return s.end.Sub(s.begin) / time.Duration(s.n) }

// measure times n calls of f as one batch.
func measure(n int, f func(i int)) sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	return sample{begin: t0, end: t1, n: n, bytes: m1.TotalAlloc - m0.TotalAlloc, allocs: m1.Mallocs - m0.Mallocs}
}

// timing gathers the samples of one per-layer timing metric, named
// <module>.<what>_<ns|us|ms>; each sample also becomes a trace span.
type timing struct {
	r    *run
	name string
	ss   []sample
}

func (r *run) timing(name string) *timing { return &timing{r: r, name: name} }

// call times one call of f.
func (t *timing) call(f func()) { t.batch(1, func(int) { f() }) }

// batch times n calls of f as one sample; for calls too short to time
// one at a time.
func (t *timing) batch(n int, f func(i int)) {
	s := measure(n, f)
	t.ss = append(t.ss, s)
	module, _, _ := strings.Cut(t.name, ".")
	t.r.rec.Span("", "layer/"+module, t.name, s.begin, s.end)
}

// done reports the median per-call time and the median heap bytes and
// allocations per call.
func (t *timing) done() {
	unit := t.name[strings.LastIndexByte(t.name, '_')+1:]
	scale := map[string]time.Duration{"ns": time.Nanosecond, "us": time.Microsecond, "ms": time.Millisecond}[unit]
	var d, b, a []float64
	for _, s := range t.ss {
		d = append(d, float64(s.perCall())/float64(scale))
		b = append(b, float64(s.bytes)/float64(s.n))
		a = append(a, float64(s.allocs)/float64(s.n))
	}
	t.r.set(t.name, median(d), unit)
	t.r.set(t.name+".bytes", median(b), "B")
	t.r.set(t.name+".allocs", median(a), "count")
}

// engineOp is one timed Engine.Run of an operation's engine, with the
// heap bytes allocated building, filling and running that engine.
type engineOp struct {
	run        sample
	sweepsFull int64
	sweepsInc  int64
	flows      int
	bytes      uint64
}

// passInput is what a workload hands the layer pass.
type passInput struct {
	// pairs are distinct pair requests taken from the workload, all on
	// one shape; aggs are agg requests (generated when empty).
	pairs []serve.PairRequest
	aggs  []serve.AggRequest
	// stream is the workload's pair stream in order, fed to one network
	// to time Engine.Submit and read the route cache (serve workloads).
	stream []serve.PairRequest
	// engine, submit and routeHits/routeMisses come from sim-mira's
	// traced repetitions; serve workloads leave engine nil.
	engine               []engineOp
	submit               []sample
	routeHits, routeMiss uint64
	p50ms                float64
	queueMS, computeMS   []float64
	acks                 []time.Duration
	ring                 bool
	faults               []serve.FaultEvent
	// noDaemon marks a workload whose load phases serve nothing
	// (sim-mira): the pass daemon's counters stand in for them.
	noDaemon bool
}

// maxFeed bounds the stream fed to the route cache and Engine.Submit.
const maxFeed = 4096

func layerPass(ctx context.Context, r *run, in passInput) error {
	if len(in.pairs) == 0 {
		return fmt.Errorf("bench: layer pass has no pair requests")
	}
	shape, err := torus.ParseShape(in.pairs[0].Shape)
	if err != nil {
		return err
	}
	tor, err := torus.New(shape)
	if err != nil {
		return err
	}
	ops, err := passPlans(r, in.pairs)
	if err != nil {
		return err
	}
	if in.engine == nil {
		in.engine = ops
		if err := passFeed(r, tor, in.stream, &in); err != nil {
			return err
		}
	}
	setEngine(r, in)
	passRoutes(r, tor, in.pairs)
	passModel(r, tor, in.pairs)
	passAgg(r, in.aggs)
	enc, hit, dec, err := passHandler(r, in.pairs)
	if err != nil {
		return err
	}
	rtt, err := passClient(ctx, r, &in)
	if err != nil {
		return err
	}
	transport := rtt - hit - enc - dec
	r.set("serve.transport_us", transport, "us")
	r.set("serve.explained_share", (enc+hit+transport+dec)/1e3/in.p50ms, "ratio")
	r.set("serve.queue_ms_p99", quantile(in.queueMS, 0.99), "ms")
	r.set("serve.compute_ms_p99", quantile(in.computeMS, 0.99), "ms")
	r.set("serve.fault_ack_p50_ms", median(ms(in.acks)), "ms")
	return passCluster(r, in)
}

// passPlans rebuilds each pair plan step by step from the public calls
// serve.ComputePair makes (torus.New, NewNetwork, NewEngine,
// NewPairPlanner, PlanPair, Run, PairWireFromPlan) and fails the run
// unless the result is byte-identical to ComputePair's.
func passPlans(r *run, pairs []serve.PairRequest) ([]engineOp, error) {
	var (
		tNew     = r.timing("torus.new_us")
		tBuild   = r.timing("netsim.build_us")
		tSelect  = r.timing("core.select_proxies_us")
		tPlan    = r.timing("core.plan_pair_us")
		tWire    = r.timing("serve.wire_us")
		tCompute = r.timing("serve.compute_pair_us")
		ops      []engineOp
		proxied  int
	)
	params := netsim.DefaultParams()
	for _, req := range pairs {
		shape, err := torus.ParseShape(req.Shape)
		if err != nil {
			return nil, err
		}
		src, dst := torus.NodeID(req.Src), torus.NodeID(req.Dst)
		var (
			tor  *torus.Torus
			net  *netsim.Network
			e    *netsim.Engine
			pl   *core.PairPlanner
			plan core.PairPlan
			mk   sim.Duration
			wire []byte
			want []byte
		)
		tNew.call(func() { tor, err = torus.New(shape) })
		if err != nil {
			return nil, err
		}
		tBuild.call(func() {
			net = netsim.NewNetwork(tor, params.LinkBandwidth)
			e, err = netsim.NewEngine(net, params)
		})
		if err != nil {
			return nil, err
		}
		build := tBuild.ss[len(tBuild.ss)-1]
		if pl, err = core.NewPairPlanner(tor, core.DefaultProxyConfig()); err != nil {
			return nil, err
		}
		tSelect.call(func() { pl.SelectProxies(src, dst) })
		tPlan.call(func() { plan, err = pl.PlanPair(e, src, dst, req.Bytes) })
		if err != nil {
			return nil, err
		}
		planned := tPlan.ss[len(tPlan.ss)-1]
		ran := measure(1, func(int) { mk, err = e.Run() })
		r.rec.Span("", "layer/netsim", "netsim.run_us", ran.begin, ran.end)
		if err != nil {
			return nil, err
		}
		tWire.call(func() { wire, err = json.Marshal(serve.PairWireFromPlan(e, plan, float64(mk))) })
		if err != nil {
			return nil, err
		}
		tCompute.call(func() {
			var p serve.PairPlan
			if p, err = serve.ComputePair(req, nil); err == nil {
				want, err = json.Marshal(p)
			}
		})
		if err == nil && !bytes.Equal(wire, want) {
			err = fmt.Errorf("step-by-step rebuild of %+v differs from ComputePair", req)
		}
		r.check(err)
		full, inc := e.SweepStats()
		ops = append(ops, engineOp{run: ran, sweepsFull: full, sweepsInc: inc, flows: e.NumFlows(),
			bytes: build.bytes + planned.bytes + ran.bytes})
		if plan.Mode == core.Proxied {
			proxied++
		}
	}
	for _, t := range []*timing{tNew, tBuild, tSelect, tPlan, tWire, tCompute} {
		t.done()
	}
	r.set("core.proxied_share", float64(proxied)/float64(len(pairs)), "ratio")
	return ops, nil
}

// passFeed submits the workload's pair stream, as direct flows, to one
// fresh network three times over: Engine.Submit per flow, and the route
// cache's hit share on the first network.
func passFeed(r *run, tor *torus.Torus, stream []serve.PairRequest, in *passInput) error {
	if len(stream) == 0 {
		return fmt.Errorf("bench: layer pass has no stream to feed")
	}
	params := netsim.DefaultParams()
	for k := 0; k < 3; k++ {
		net := netsim.NewNetwork(tor, params.LinkBandwidth)
		e, err := netsim.NewEngine(net, params)
		if err != nil {
			return err
		}
		e.Reserve(len(stream))
		s := measure(len(stream), func(i int) {
			e.Submit(netsim.FlowSpec{Src: torus.NodeID(stream[i].Src), Dst: torus.NodeID(stream[i].Dst), Bytes: stream[i].Bytes})
		})
		r.rec.Span("", "layer/netsim", "netsim.submit_ns", s.begin, s.end)
		in.submit = append(in.submit, s)
		if k == 0 {
			in.routeHits, in.routeMiss, _ = net.RouteCache().Counts()
		}
	}
	return nil
}

// setEngine reports the operation-engine metrics: Engine.Run per
// operation, Engine.Submit per flow, sweep counts per run, heap bytes
// per flow, and the route cache's hit share.
func setEngine(r *run, in passInput) {
	tRun := r.timing("netsim.run_us")
	var full, inc int64
	var bytes uint64
	var flows int
	for _, op := range in.engine {
		tRun.ss = append(tRun.ss, op.run)
		full += op.sweepsFull
		inc += op.sweepsInc
		bytes += op.bytes
		flows += op.flows
	}
	tRun.done()
	tSubmit := r.timing("netsim.submit_ns")
	tSubmit.ss = in.submit
	tSubmit.done()
	n := float64(len(in.engine))
	r.set("netsim.sweeps_full", float64(full)/n, "count")
	r.set("netsim.sweeps_incremental", float64(inc)/n, "count")
	r.set("netsim.bytes_per_flow", float64(bytes)/float64(flows), "B")
	r.set("routing.cache_hit_ratio", float64(in.routeHits)/float64(in.routeHits+in.routeMiss), "ratio")
}

// callsPerBatch makes nanosecond-scale timings long enough to read.
const callsPerBatch = 2048

func passRoutes(r *run, tor *torus.Torus, pairs []serve.PairRequest) {
	t := r.timing("routing.route_ns")
	for k := 0; k < 5; k++ {
		t.batch(callsPerBatch, func(i int) {
			p := pairs[i%len(pairs)]
			routing.DeterministicRoute(tor, torus.NodeID(p.Src), torus.NodeID(p.Dst))
		})
	}
	t.done()
}

// passModel times the Eq. 1-5 proxy-count decision for each pair.
func passModel(r *run, tor *torus.Torus, pairs []serve.PairRequest) {
	m, err := core.NewCostModel(netsim.DefaultParams())
	if err != nil {
		panic(err) // DefaultParams always validate
	}
	hops := make([]int, len(pairs))
	for i, p := range pairs {
		hops[i] = tor.HopDistance(torus.NodeID(p.Src), torus.NodeID(p.Dst))
	}
	t := r.timing("core.eq5_ns")
	for k := 0; k < 5; k++ {
		t.batch(callsPerBatch, func(i int) {
			j := i % len(pairs)
			m.BestProxyCount(pairs[j].Bytes, 2*tor.Dims(), hops[j], 1, hops[j])
		})
	}
	t.done()
}

func passAgg(r *run, aggs []serve.AggRequest) {
	if len(aggs) == 0 {
		for k := 0; k < 4; k++ {
			aggs = append(aggs, aggRequest(r.sc.hotShape, subSeed(r.seed, "agg", k)))
		}
	}
	t := r.timing("serve.compute_agg_ms")
	for _, a := range aggs {
		var err error
		t.call(func() { _, err = serve.ComputeAgg(a, nil) })
		r.check(err)
	}
	t.done()
}

// envelope mirrors the daemon's plan response body.
type envelope struct {
	Plan      json.RawMessage `json:"plan,omitempty"`
	Epoch     uint64          `json:"epoch"`
	Cached    bool            `json:"cached,omitempty"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Error     string          `json:"error,omitempty"`
	Vector    string          `json:"vector,omitempty"`
}

// passHandler drives a fresh server's Handler().ServeHTTP on an
// httptest recorder, with no socket: each pair once on a cold cache
// (miss), then again (hit). It also times the client's two halves, the
// request encode and the response decode. It returns the medians, in
// µs, of encode, hit and decode.
func passHandler(r *run, pairs []serve.PairRequest) (enc, hit, dec float64, err error) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	h := srv.Handler()
	var (
		tEnc  = r.timing("serve.client_encode_us")
		tMiss = r.timing("serve.handler_miss_us")
		tHit  = r.timing("serve.handler_hit_us")
		tDec  = r.timing("serve.client_decode_us")
	)
	for _, p := range pairs {
		var body []byte
		tEnc.call(func() { body, err = json.Marshal(p) })
		if err != nil {
			return 0, 0, 0, err
		}
		for _, t := range []*timing{tMiss, tHit} {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/plan/pair", bytes.NewReader(body))
			t.call(func() { h.ServeHTTP(rec, req) })
			var checkErr error
			if rec.Code != http.StatusOK {
				checkErr = fmt.Errorf("handler answered %d for %+v", rec.Code, p)
			}
			r.check(checkErr)
			if t == tHit {
				var env envelope
				tDec.call(func() { err = json.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&env) })
				if err != nil {
					return 0, 0, 0, err
				}
			}
		}
	}
	for _, t := range []*timing{tEnc, tMiss, tHit, tDec} {
		t.done()
	}
	return r.metrics[tEnc.name].Value, r.metrics[tHit.name].Value, r.metrics[tDec.name].Value, nil
}

// passClient starts a fresh daemon of the workload's kind (a cluster
// for serve-faults) and sends each pair twice through its client:
// unloaded misses add to the queue and compute samples, the repeats
// time Client.PlanPair of a cached request. A workload that posted no
// faults posts eight here, to time their acknowledgement. It returns
// the median round trip in µs.
func passClient(ctx context.Context, r *run, in *passInput) (float64, error) {
	var (
		pl     planner
		fault  func(context.Context, serve.FaultEvent) (uint64, error)
		counts func(context.Context) (serverCounts, error)
		ds     []*daemon
	)
	if in.ring {
		var rc *serve.RingClient
		var err error
		if ds, rc, err = startCluster(r.seed); err != nil {
			return 0, err
		}
		pl, fault, counts = rc, rc.Fault, ringCounts(rc)
	} else {
		d, c, err := startDaemon(serve.Config{})
		if err != nil {
			return 0, err
		}
		ds, pl, fault, counts = []*daemon{d}, c, c.Fault, clientCounts(c)
	}
	defer closeAll(ds)
	tRTT := r.timing("serve.client_rtt_us")
	var retries int
	for _, p := range in.pairs {
		res, err := pl.PlanPair(ctx, p)
		if err == nil && !res.OK() {
			err = fmt.Errorf("status %d: %s", res.Status, res.Err)
		}
		r.check(err)
		in.queueMS = append(in.queueMS, res.QueueMS)
		in.computeMS = append(in.computeMS, res.ComputeMS)
		retries += res.Retries
		tRTT.call(func() { res, err = pl.PlanPair(ctx, p) })
		if err == nil && !res.Cached {
			err = fmt.Errorf("repeat of %+v was not served from the cache", p)
		}
		r.check(err)
		retries += res.Retries
	}
	tRTT.done()
	if in.noDaemon {
		c, err := counts(ctx)
		if err != nil {
			return 0, err
		}
		setServerCounts(r, c, int64(retries), 0)
	}
	if len(in.acks) == 0 {
		gen, err := newFaultGen(r.seed, in.pairs[0].Shape)
		if err != nil {
			return 0, err
		}
		for k := 0; k < 8; k++ {
			ev := gen.next()
			s := measure(1, func(int) { _, err = fault(ctx, ev) })
			r.check(err)
			r.rec.Span("", "client/fault", "fault", s.begin, s.end)
			in.acks = append(in.acks, s.perCall())
			in.faults = append(in.faults, ev)
		}
	}
	return r.metrics[tRTT.name].Value, nil
}

// passCluster times the cluster package: ring lookups of the pairs'
// keys, replaying the run's fault sequence into a fresh Log (origins
// rotating across the replicas as RingClient.Fault rotates them), and
// the staleness test between the vectors that replay passes through.
func passCluster(r *run, in passInput) error {
	if len(in.faults) == 0 {
		return fmt.Errorf("bench: layer pass has no fault sequence to replay")
	}
	members := make([]cluster.Member, replicas)
	for i := range members {
		members[i] = cluster.Member{ID: replicaID(i), Addr: replicaID(i)}
	}
	ring := cluster.NewRing(0, members...)
	keys := make([]string, len(in.pairs))
	for i, p := range in.pairs {
		keys[i] = fmt.Sprintf("pair|%s|%d|%d|%d", p.Shape, p.Src, p.Dst, p.Bytes)
	}
	tLookup := r.timing("cluster.ring_lookup_ns")
	for k := 0; k < 5; k++ {
		tLookup.batch(callsPerBatch, func(i int) { ring.Lookup(keys[i%len(keys)]) })
	}
	tLookup.done()

	evs := make([]cluster.Event, len(in.faults))
	vecs := make([]cluster.Vector, len(in.faults))
	seqs := cluster.Vector{}
	for k, f := range in.faults {
		origin := replicaID(k % replicas)
		seqs[origin]++
		evs[k] = cluster.Event{Origin: origin, Seq: seqs[origin], LT: uint64(k + 1), Links: f.Links, Clear: f.Clear}
		vecs[k] = seqs.Clone()
	}
	tApply := r.timing("cluster.log_apply_us")
	for k := 0; k < 16; k++ {
		log := cluster.NewLog()
		var applied int
		tApply.call(func() { applied = len(log.Apply(evs...)) })
		var err error
		if applied != len(evs) {
			err = fmt.Errorf("log applied %d of %d fault events", applied, len(evs))
		}
		r.check(err)
	}
	tApply.done()

	tDom := r.timing("cluster.vector_dominates_ns")
	for k := 0; k < 5; k++ {
		tDom.batch(callsPerBatch, func(i int) { vecs[i%len(vecs)].Dominates(vecs[(7*i+3)%len(vecs)]) })
	}
	tDom.done()
	return nil
}
