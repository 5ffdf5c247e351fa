// Package serve turns the repo's planners into a long-running,
// concurrent planning service: the bgqd daemon answers PlanPair /
// PlanGroup / PlanAggregation / Simulate requests over HTTP/JSON on a
// TCP or Unix socket.
//
// Three mechanisms make it safe to put in front of heavy traffic
// (DESIGN.md §12):
//
//   - A worker-pool dispatcher with a bounded queue: each plan builds
//     and runs a private simulation engine, so admission control caps
//     both CPU and memory. When the queue is full the request is shed
//     with 429 + Retry-After instead of queueing without bound.
//   - A sharded plan cache keyed on the request's kind, geometry and
//     canonical encoding, with singleflight
//     coalescing: N concurrent identical requests compute once. Sparse
//     request streams — a few hot (src, dst) couples dominating, the
//     Pattern-2 shape — hit the cache almost always.
//   - Link-scoped invalidation wired to fault events: a POST /v1/fault
//     publishes the next fault snapshot, stamping only the links whose
//     failed state changed, and a cached plan stays servable unless it
//     read one of them (see planCache).
//
// Every request is instrumented through internal/obs; GET /metrics
// returns the registry snapshot as flat JSON.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
)

// Config tunes the daemon.
type Config struct {
	// Workers is the plan-computation pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the dispatcher queue; admission beyond it sheds
	// with 429. 0 means 4x workers; the minimum is 1 (a zero-length
	// queue would make admission depend on worker scheduling).
	QueueDepth int
	// CacheShards is the plan-cache shard count; 0 means 16.
	CacheShards int
	// CacheEntriesPerShard bounds each shard; 0 means 4096.
	CacheEntriesPerShard int
	// RetryAfter is the backoff hint attached to shed responses; 0 means
	// 1s.
	RetryAfter time.Duration

	// MaxSessions caps concurrently running transfer sessions; past it
	// new sessions shed with 429. 0 means 4096.
	MaxSessions int
	// SessionIdle is the heartbeat deadline: a session with no subscriber
	// and no heartbeat for this long is canceled (running) or reaped
	// (done). 0 means 60s.
	SessionIdle time.Duration
	// ReplayEvents bounds each session's replay ring. 0 means 256.
	ReplayEvents int
	// BatchWindow, when positive, enables Träff-style message combining:
	// small (at most 256 KiB) same-pair transfer requests marked Batch
	// that arrive within one window coalesce into a single combined
	// session. 0 disables.
	BatchWindow time.Duration

	// TraceEvents, when positive, enables the wall-clock trace plane: a
	// bounded ring of that many spans/instants served by GET /v1/trace.
	// 0 disables tracing (the zero-cost default).
	TraceEvents int
	// StatsWindow sizes the rolling windows behind serve/window/* metrics
	// and SLO evaluation. 0 means 30s.
	StatsWindow time.Duration
	// SLOs are the objectives the daemon tracks (see obs.SLOSpec). Specs
	// must validate; New panics on a malformed spec (bgqd validates at
	// flag parse, so this only fires on programmer error).
	SLOs []obs.SLOSpec

	// ReplicaID names this daemon as a replica of a bgqd cluster
	// (DESIGN.md §17); a daemon without peers is a cluster of one. Fault
	// events are stamped into a gossiped epoch log under this origin,
	// responses carry X-Bgq-Replica / X-Bgq-Vector, and requests stamped
	// with X-Bgq-Min-Vector are rejected with 503 until this replica has
	// applied at least that vector. The ID must be unique per replica.
	// Empty means "bgqd".
	ReplicaID string
	// Peers are the other replicas' base addresses (same forms NewClient
	// accepts: "host:port", "http://...", "unix:///path").
	Peers []string
	// GossipInterval is the anti-entropy period between rounds. 0 means
	// 200ms.
	GossipInterval time.Duration
	// GossipSeed fixes gossip peer selection (deterministic tests).
	GossipSeed int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.CacheEntriesPerShard <= 0 {
		c.CacheEntriesPerShard = 4096
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.SessionIdle <= 0 {
		c.SessionIdle = 60 * time.Second
	}
	if c.ReplayEvents <= 0 {
		c.ReplayEvents = 256
	}
	if c.StatsWindow <= 0 {
		c.StatsWindow = 30 * time.Second
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = 200 * time.Millisecond
	}
	if c.ReplicaID == "" {
		c.ReplicaID = "bgqd"
	}
	return c
}

// FaultEvent is the body of POST /v1/fault: link failures to add to the
// daemon's fault set, or Clear to reset it (a repair) before adding
// Links. Either way the daemon publishes a new fault snapshot under the
// next epoch.
type FaultEvent struct {
	Links []scenario.FailLink `json:"links,omitempty"`
	Clear bool                `json:"clear,omitempty"`
}

// Server is the planning service. Create with New, mount Handler on any
// http.Server (TCP or Unix listener), Close when done.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	cache    *planCache
	disp     *dispatcher
	sessions *sessionMgr
	start    time.Time

	// Telemetry plane (telemetry.go). wall is nil when tracing is
	// disabled; every WallRecorder method is nil-safe, so call sites pay
	// one branch. The window metrics are pre-registered so the hot path
	// never takes the registry lock.
	wall         *obs.WallRecorder
	slo          *obs.SLOTracker
	sloStop      chan struct{}
	sloDone      chan struct{}
	wRequests    *obs.WindowCounter
	wShed        *obs.WindowCounter
	wResumeHit   *obs.WindowCounter
	wResumeTotal *obs.WindowCounter
	wLatency     *obs.WindowHistogram

	// Cluster plane (cluster.go): the gossip node over this replica's
	// fault-event log, and the anti-entropy loop's stop/done channels.
	node       *cluster.Node
	gossipStop chan struct{}
	gossipDone chan struct{}

	// mu serializes fault publishes (publishLocked). The published
	// snapshot itself is read without it: epoch, fault set and vector
	// live in one immutable faultSnapshot, so a request can never pair
	// a plan with another snapshot's vector.
	mu sync.Mutex
	// pubVer is the highest log version published; guarded by mu.
	pubVer uint64
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   obs.NewRegistry(),
		cache: newPlanCache(cfg.CacheShards, cfg.CacheEntriesPerShard),
		disp:  newDispatcher(cfg.Workers, cfg.QueueDepth),
		start: time.Now(),

		gossipStop: make(chan struct{}),
		gossipDone: make(chan struct{}),
	}
	s.wRequests = s.reg.WindowCounter("serve/window/requests", cfg.StatsWindow)
	s.wShed = s.reg.WindowCounter("serve/window/shed", cfg.StatsWindow)
	s.wResumeHit = s.reg.WindowCounter("serve/window/resume_hits", cfg.StatsWindow)
	s.wResumeTotal = s.reg.WindowCounter("serve/window/resumes", cfg.StatsWindow)
	s.wLatency = s.reg.WindowHistogram("serve/window/plan_latency_ms", cfg.StatsWindow)
	if cfg.TraceEvents > 0 {
		s.wall = obs.NewWallRecorder(cfg.TraceEvents)
	}
	if len(cfg.SLOs) > 0 {
		tracker, err := obs.NewSLOTracker(s.reg, cfg.SLOs)
		if err != nil {
			panic(err)
		}
		s.slo = tracker
		s.sloStop = make(chan struct{})
		s.sloDone = make(chan struct{})
		interval := cfg.StatsWindow / 4
		if interval < 500*time.Millisecond {
			interval = 500 * time.Millisecond
		}
		go s.sloLoop(interval)
	}
	s.sessions = newSessionMgr(s)
	s.node = cluster.NewNode(cluster.NodeConfig{
		ID:        cfg.ReplicaID,
		Peers:     cfg.Peers,
		Transport: newHTTPGossipTransport(),
		Seed:      cfg.GossipSeed,
		OnApply:   s.onApply,
	}, cluster.NewLog())
	go s.gossipLoop(cfg.GossipInterval)
	return s
}

// Registry exposes the server's metrics registry (tests and embedders
// read counters from it directly).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Epoch returns the current plan-cache invalidation epoch.
func (s *Server) Epoch() uint64 { return s.cache.Epoch() }

// Close force-stops the session layer (graceful exits call Drain first)
// and drains the worker pool. In-flight HTTP requests must have
// completed (http.Server.Shutdown before Close).
func (s *Server) Close() {
	close(s.gossipStop)
	<-s.gossipDone
	if s.sloStop != nil {
		close(s.sloStop)
		<-s.sloDone
	}
	s.sessions.shutdown()
	s.disp.close()
}

// snapshot returns the current epoch and fault set, taken from one
// published snapshot. The fault set is shared and must not be mutated.
func (s *Server) snapshot() (uint64, []scenario.FailLink) {
	snap := s.cache.current()
	return snap.epoch, snap.faults
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan/pair", s.handlePair)
	mux.HandleFunc("POST /v1/plan/group", s.handleGroup)
	mux.HandleFunc("POST /v1/plan/agg", s.handleAgg)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/fault", s.handleFault)
	mux.HandleFunc("POST /v1/transfer", s.handleTransfer)
	mux.HandleFunc("GET /v1/transfer/{id}", s.handleTransferStatus)
	mux.HandleFunc("GET /v1/transfer/{id}/events", s.handleTransferEvents)
	mux.HandleFunc("POST /v1/transfer/{id}/ack", s.handleTransferAck)
	mux.HandleFunc("POST /v1/transfer/{id}/heartbeat", s.handleTransferHeartbeat)
	mux.HandleFunc("POST /v1/gossip", s.handleGossip)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// planEnvelope wraps every plan response. Plan carries the cacheable
// payload; the remaining fields describe how THIS request was served and
// are deliberately outside Plan so that byte-identity of plans holds
// across cache hits, coalesced waits, and fresh computations.
type planEnvelope struct {
	Plan      json.RawMessage `json:"plan,omitempty"`
	Epoch     uint64          `json:"epoch"`
	Cached    bool            `json:"cached,omitempty"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Error     string          `json:"error,omitempty"`
	// Vector is the fault-epoch vector the response was served under
	// (see cluster.Vector.String for the form).
	Vector string `json:"vector,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// planOpen opens every 200 plan body: the envelope's first key, which
// the stored plan bytes follow.
const planOpen = `{"plan":`

// planBufs holds the buffers writePlan assembles a response in.
var planBufs = sync.Pool{New: func() any { return new([]byte) }}

// writePlan writes a 200 plan response around plan, the bytes the cache
// stores, without scanning them again. They are json.Marshal output,
// compact and HTML-escaped, so the body is byte for byte what writeJSON
// writes for the planEnvelope of this plan, snapshot and outcome
// (TestPlanEnvelopeBytes), and like writeJSON it reaches w in one Write.
func writePlan(w http.ResponseWriter, plan []byte, snap *faultSnapshot, outcome cacheOutcome) {
	bp := planBufs.Get().(*[]byte)
	b := append(append((*bp)[:0], planOpen...), plan...)
	b = strconv.AppendUint(append(b, `,"epoch":`...), snap.epoch, 10)
	switch outcome {
	case outcomeHit:
		b = append(b, `,"cached":true`...)
	case outcomeCoalesced:
		b = append(b, `,"coalesced":true`...)
	}
	if snap.vecJSON != nil {
		b = append(append(b, `,"vector":`...), snap.vecJSON...)
	}
	b = append(b, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// As in writeJSON, a failed write means the client is gone: there is
	// no one left to tell.
	w.Write(b)
	*bp = b
	planBufs.Put(bp)
}

// servePlan is the shared request path: admission, coalescing, caching,
// instrumentation. The request's trace (client-stamped or generated)
// tags the wall spans; queue and compute phase times go back to the
// client as X-Bgq-Queue-Ms / X-Bgq-Compute-Ms headers (0 unless this
// request computed the plan).
//
// The request plans against one fault snapshot: its fault set, epoch and
// vector all come from the same publish. compute records what it reads
// of the fault set in reads (see planReads.build).
func (s *Server) servePlan(w http.ResponseWriter, r *http.Request, endpoint, key string,
	compute func(faults []scenario.FailLink, reads *planReads) (any, error)) {
	t0 := time.Now()
	trace := s.traceID(r)
	span := s.wall.SpanBegin(trace, "bgqd/plan", endpoint)
	s.reg.Counter("serve/requests").Inc()
	s.reg.Counter("serve/requests/" + endpoint).Inc()
	s.wRequests.Inc()
	snap := s.cache.current()
	epoch, vecStr := snap.epoch, snap.vecStr
	w.Header().Set(HeaderReplica, s.cfg.ReplicaID)
	w.Header().Set(HeaderVector, vecStr)
	// Cross-replica staleness check: a client that saw a fault event
	// acknowledged at vector V demands we have applied V. If gossip has
	// not delivered those events yet, serving would hand out a pre-fault
	// plan — reject instead; no Retry-After, so the client returns on its
	// own short backoff, by which time the eager broadcast or the next
	// anti-entropy round has caught us up.
	if !s.checkMinVector(w, r, snap) {
		s.wall.SpanAbort(span)
		return
	}
	// Phase timestamps, written by the worker goroutine; the channel
	// receive inside the singleflight closure orders them before our
	// reads. They stay zero on hit/coalesced/shed outcomes.
	var tQueueDone, tComputeDone time.Time
	val, err, outcome := s.cache.Do(key, snap, func() ([]byte, *readSet, error) {
		type result struct {
			b  []byte
			rs *readSet
			e  error
		}
		ch := make(chan result, 1)
		admitted := s.disp.trySubmit(func() {
			tQueueDone = time.Now()
			var reads planReads
			plan, cerr := compute(snap.faults, &reads)
			tComputeDone = time.Now()
			if cerr != nil {
				ch <- result{e: cerr}
				return
			}
			b, merr := json.Marshal(plan)
			ch <- result{b, reads.readSet(), merr}
		})
		s.reg.Gauge("serve/queue_depth").Set(float64(s.disp.queued()))
		if !admitted {
			return nil, nil, ErrOverloaded
		}
		r := <-ch
		return r.b, r.rs, r.e
	})
	var queueMS, computeMS float64
	if outcome == outcomeComputed && !tQueueDone.IsZero() {
		queueMS = float64(tQueueDone.Sub(t0)) / 1e6
		computeMS = float64(tComputeDone.Sub(tQueueDone)) / 1e6
		s.wall.Span(trace, "bgqd/queue", endpoint+" queue", t0, tQueueDone)
		s.wall.Span(trace, "bgqd/compute", endpoint+" compute", tQueueDone, tComputeDone)
	}
	setMSHeader(w.Header(), HeaderQueueMS, queueMS)
	setMSHeader(w.Header(), HeaderComputeMS, computeMS)
	if trace != "" {
		w.Header().Set(HeaderTraceID, trace)
	}
	switch outcome {
	case outcomeHit:
		s.reg.Counter("serve/cache_hits").Inc()
	case outcomeCoalesced:
		s.reg.Counter("serve/coalesced").Inc()
	case outcomeComputed:
		if err == nil {
			s.reg.Counter("serve/plans_computed").Inc()
		}
	}
	if err == ErrOverloaded {
		s.reg.Counter("serve/shed").Inc()
		s.wShed.Inc()
		s.wall.SpanAbort(span)
		secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, planEnvelope{Epoch: epoch, Error: err.Error(), Vector: vecStr})
		return
	}
	if err != nil {
		s.reg.Counter("serve/errors").Inc()
		s.wall.SpanAbort(span)
		writeJSON(w, http.StatusBadRequest, planEnvelope{Epoch: epoch, Error: err.Error(), Vector: vecStr})
		return
	}
	latencyMS := float64(time.Since(t0)) / 1e6
	s.reg.Histogram("serve/latency_ms/" + endpoint).Observe(latencyMS)
	s.wLatency.Observe(latencyMS)
	s.wall.SpanEnd(span)
	writePlan(w, val, snap, outcome)
}

// maxBodyBytes bounds a request body; past it the read fails with
// http.MaxBytesReader's error.
const maxBodyBytes = 1 << 20

// decodeBody decodes the one JSON value a request body holds into v,
// reading at most maxBodyBytes, and answers 400 when it cannot. A pair
// body is read whole first, and decodePair reads it when it has the
// form json.Marshal gives a PairRequest. Every other body goes to a
// json.Decoder that refuses unknown fields; a pair body decodePair
// refuses reaches it as the bytes read followed by the read's error, so
// the values accepted and the error text are those of the Decoder
// reading the body itself.
func decodeBody(w http.ResponseWriter, r *http.Request, reg *obs.Registry, v any) bool {
	var body io.Reader = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if req, ok := v.(*PairRequest); ok {
		b, rerr := io.ReadAll(body)
		if rerr == nil && decodePair(b, req) {
			return true
		}
		body = bytes.NewReader(b)
		if rerr != nil {
			body = io.MultiReader(body, errReader{rerr})
		}
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := decodeOne(dec, v); err != nil {
		reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: fmt.Sprintf("serve: bad request body: %v", err)})
		return false
	}
	return true
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// pairInts are the integer members of a pair body as json.Marshal
// writes them, in order, with the width of their fields.
var pairInts = [...]struct {
	key  string
	bits int
}{{`"src":`, strconv.IntSize}, {`,"dst":`, strconv.IntSize}, {`,"bytes":`, 64}, {`,"proxies":`, strconv.IntSize}}

// decodePair decodes body into req without reflection when it has the
// exact form json.Marshal gives a PairRequest: the lower-case keys in
// field order, shape and topology only when non-empty, strings of
// printable ASCII with no escapes, canonical decimal integers in range,
// and only whitespace after the closing brace. A json.Decoder sets the
// same fields from such a body. For any other body it reports false and
// leaves req as it was (FuzzPlanRequest).
func decodePair(body []byte, req *PairRequest) bool {
	out := *req
	b, ok := bytes.CutPrefix(body, []byte("{"))
	if !ok {
		return false
	}
	if b, ok = readPairString(b, `"shape":"`, &out.Shape); !ok {
		return false
	}
	if b, ok = readPairString(b, `"topology":"`, &out.Topology); !ok {
		return false
	}
	var ints [len(pairInts)]int64
	for i, m := range pairInts {
		if b, ok = bytes.CutPrefix(b, []byte(m.key)); !ok {
			return false
		}
		n := 0
		if ints[i], n = readInt(b, m.bits); n == 0 {
			return false
		}
		b = b[n:]
	}
	if b, ok = bytes.CutPrefix(b, []byte("}")); !ok || len(bytes.TrimLeft(b, jsonSpace)) != 0 {
		return false
	}
	out.Src, out.Dst, out.Bytes, out.Proxies = int(ints[0]), int(ints[1]), ints[2], int(ints[3])
	*req = out
	return true
}

// readPairString reads the member that opens b when it is key, a
// non-empty string of plain printable ASCII, and a comma, storing the
// string in *v. b passes through when it opens with another member; ok
// is false when it opens with key and anything else follows.
func readPairString(b []byte, key string, v *string) (rest []byte, ok bool) {
	s, found := bytes.CutPrefix(b, []byte(key))
	if !found {
		return b, true
	}
	n := plainString(s)
	if n == 0 || !bytes.HasPrefix(s[n:], []byte(`",`)) {
		return b, false
	}
	*v = string(s[:n])
	return s[n+2:], true
}

// readInt reads the canonical decimal integer that opens b, an optional
// minus then what readUint reads but never -0, when it fits a signed
// integer of the given bits. It returns the value and the bytes taken,
// 0 when there is no such integer.
func readInt(b []byte, bits int) (int64, int) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	u, n := readUint(b)
	limit := uint64(1)<<(bits-1) - 1
	switch {
	case n == 0:
		return 0, 0
	case !neg && u <= limit:
		return int64(u), n
	case neg && u != 0 && u-1 <= limit:
		return -int64(u-1) - 1, n + 1
	}
	return 0, 0
}

// decodeOne decodes the one JSON value a request body holds: only
// whitespace may follow it.
func decodeOne(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

func (s *Server) handlePair(w http.ResponseWriter, r *http.Request) {
	var req PairRequest
	if !decodeBody(w, r, s.reg, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: err.Error()})
		return
	}
	s.servePlan(w, r, "pair", req.cacheKey(), func(faults []scenario.FailLink, reads *planReads) (any, error) {
		return computePair(req, faults, reads)
	})
}

func (s *Server) handleGroup(w http.ResponseWriter, r *http.Request) {
	var req GroupRequest
	if !decodeBody(w, r, s.reg, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: err.Error()})
		return
	}
	s.servePlan(w, r, "group", req.cacheKey(), func(faults []scenario.FailLink, reads *planReads) (any, error) {
		return computeGroup(req, faults, reads)
	})
}

func (s *Server) handleAgg(w http.ResponseWriter, r *http.Request) {
	var req AggRequest
	if !decodeBody(w, r, s.reg, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: err.Error()})
		return
	}
	s.servePlan(w, r, "agg", req.cacheKey(), func(faults []scenario.FailLink, reads *planReads) (any, error) {
		return computeAgg(req, faults, reads)
	})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var cfg scenario.Config
	if !decodeBody(w, r, s.reg, &cfg) {
		return
	}
	if err := validateSim(&cfg); err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: err.Error()})
		return
	}
	// Canonicalize (Validate filled defaults) so equal scenarios hash
	// equal regardless of JSON field order or omitted defaults.
	canon, err := json.Marshal(cfg)
	if err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: err.Error()})
		return
	}
	s.servePlan(w, r, "sim", simCacheKey(cfg, canon), func(faults []scenario.FailLink, reads *planReads) (any, error) {
		return computeSim(cfg, faults, reads)
	})
}

// handleFault ingests a fault event: it originates the event into the
// log and publishes the log's fault set as the next snapshot, then
// pushes the event to every peer and acknowledges with that snapshot's
// epoch and vector. A client that stamps the vector as X-Bgq-Min-Vector
// on its next request gets read-your-writes across the whole cluster.
func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	var ev FaultEvent
	if !decodeBody(w, r, s.reg, &ev) {
		return
	}
	if err := validateLinks(ev.Links); err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: err.Error()})
		return
	}
	w.Header().Set(HeaderReplica, s.cfg.ReplicaID)
	// Honoring min-vector here too gives sequential fault posts a
	// well-defined cluster-wide order: each originator has applied every
	// event the client saw acknowledged, so Lamport stamps increase.
	if !s.checkMinVector(w, r, s.cache.current()) {
		return
	}
	s.mu.Lock()
	cev := s.node.Log().Originate(s.cfg.ReplicaID, ev.Links, ev.Clear)
	snap := s.publishLocked()
	s.mu.Unlock()
	s.reg.Counter("serve/fault_events").Inc()
	// Forward the event into running transfer sessions: each applies the
	// failure at its next safe point and streams a pushed-fault frame
	// (repairs — Clear — do not propagate; a session's engine cannot
	// un-fail a link mid-run).
	s.sessions.pushFaults(ev.Links, snap.epoch)
	// The push is synchronous, so a client that posts a fault and then
	// plans against another replica usually finds the event already
	// there; the min-vector check covers the window where it is not. A
	// peer's reply re-enters onApply, which takes s.mu.
	s.node.Broadcast(r.Context(), []cluster.Event{cev})
	w.Header().Set(HeaderVector, snap.vecStr)
	writeJSON(w, http.StatusOK, planEnvelope{Epoch: snap.epoch, Vector: snap.vecStr})
}

// validateLinks is the link check POST /v1/fault and POST /v1/gossip
// share: a fault link names a non-negative node and dimension and a
// direction of +1 or -1.
func validateLinks(links []scenario.FailLink) error {
	for _, fl := range links {
		if fl.Dir != 1 && fl.Dir != -1 {
			return fmt.Errorf("serve: fault dir %d must be +1 or -1", fl.Dir)
		}
		if fl.Node < 0 || fl.Dim < 0 {
			return fmt.Errorf("serve: bad fault link %+v", fl)
		}
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Refresh the point-in-time gauges, then snapshot.
	s.reg.Gauge("serve/queue_depth").Set(float64(s.disp.queued()))
	s.reg.Gauge("serve/cache_entries").Set(float64(s.cache.Len()))
	s.reg.Gauge("serve/epoch").Set(float64(s.cache.Epoch()))
	s.reg.Gauge("serve/uptime_seconds").Set(time.Since(s.start).Seconds())
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		snap.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	snap.WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
