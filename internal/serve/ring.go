package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
)

// RingClient is the client side of the bgqd cluster (DESIGN.md §17): it
// routes every request to the replica owning its key on a
// consistent-hash ring, fails over down the successor ladder when a
// replica dies, and threads one shared min-vector through all
// per-replica clients so a fault acknowledged anywhere is reflected in
// every subsequent plan (read-your-writes across the fleet).
//
// Plans route by their cache key — the same couple always lands on the
// same replica, so the fleet's aggregate cache behaves like one big
// sharded cache. Transfer sessions route by session ID; on failover the
// idempotent re-POST re-arms the session on the successor without
// duplicating it. Fault posts rotate across replicas, exercising
// origination everywhere.
type RingClient struct {
	ring    *cluster.Ring
	reg     *obs.Registry
	retry   RetryPolicy
	tracer  *obs.WallRecorder
	clients map[string]*Client // by member ID
	demand  *minVector         // shared with every per-replica client

	mu       sync.Mutex
	down     map[string]time.Time // member ID -> cooldown expiry
	faultRR  int
	cooldown time.Duration
}

// NewRingClient builds a ring client over the given members. Every
// member address must parse; the ring uses default vnodes so routing
// matches every other client built from the same member list.
func NewRingClient(members []cluster.Member) (*RingClient, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("serve: ring client needs at least one member")
	}
	reg := obs.NewRegistry()
	rc := &RingClient{
		ring:     cluster.NewRing(0, members...),
		reg:      reg,
		retry:    DefaultRetryPolicy(),
		clients:  make(map[string]*Client, len(members)),
		demand:   &minVector{vec: cluster.Vector{}, reg: reg},
		down:     make(map[string]time.Time),
		cooldown: 2 * time.Second,
	}
	for _, m := range members {
		c, err := NewClient(m.Addr)
		if err != nil {
			return nil, fmt.Errorf("serve: ring member %s: %w", m.ID, err)
		}
		c.demand = rc.demand
		c.SetMetrics(rc.reg)
		rc.clients[m.ID] = c
	}
	return rc, nil
}

// SetRetryPolicy sets the per-replica retry policy (429/503 responses
// retry against the SAME replica — a stale 503 resolves by waiting for
// gossip, not by moving). Transport errors always fail over to the next
// successor regardless of policy. Configure before use.
func (rc *RingClient) SetRetryPolicy(p RetryPolicy) {
	// RetryConn stays off per replica: a refused connection means the
	// replica is gone and the ladder handles it.
	p.RetryConn = false
	rc.retry = p
	for _, c := range rc.clients {
		c.SetRetryPolicy(p)
	}
}

// SetTracer attaches one wall recorder to every per-replica client.
// Configure before use.
func (rc *RingClient) SetTracer(t *obs.WallRecorder) {
	rc.tracer = t
	for _, c := range rc.clients {
		c.SetTracer(t)
	}
}

// Registry exposes the ring client's metrics: serve/ring/failovers,
// serve/ring/stale_served, serve/ring/all_down, plus the per-replica
// client anomaly counters.
func (rc *RingClient) Registry() *obs.Registry { return rc.reg }

// Members returns the ring membership sorted by ID.
func (rc *RingClient) Members() []cluster.Member { return rc.ring.Members() }

// Client returns the underlying per-replica client (nil for unknown
// IDs) — tests and per-replica probes use it directly.
func (rc *RingClient) Client(id string) *Client { return rc.clients[id] }

// MinVector returns the fault-epoch vector the ring client currently
// demands of every plan ("" until a fault ack establishes one).
func (rc *RingClient) MinVector() string { return rc.demand.String() }

// StaleServed reports how many responses arrived with a vector that did
// NOT dominate the demanded min vector — the chaos-soak gate; the
// server-side check makes this impossible, so any nonzero count is a
// staleness bug.
func (rc *RingClient) StaleServed() int64 {
	return rc.reg.Counter("serve/ring/stale_served").Value()
}

// minVector is the fault-epoch vector a RingClient demands of every
// plan (read-your-writes across replicas). Its methods are nil-safe: a
// plain Client holds none and demands nothing.
type minVector struct {
	mu  sync.Mutex
	vec cluster.Vector
	reg *obs.Registry // counts malformed acknowledged vectors
}

func (m *minVector) String() string {
	if m == nil {
		return ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.vec.String()
}

// merge raises the demand pointwise by an acknowledged vector v.
func (m *minVector) merge(v string) {
	if m == nil {
		return
	}
	parsed, err := cluster.ParseVector(v)
	if err != nil {
		m.reg.Counter("serve/client/bad_vector").Inc()
		return
	}
	m.mu.Lock()
	m.vec.Merge(parsed)
	m.mu.Unlock()
}

// markDown starts a cooldown for a member that failed at the transport
// level; ladder walks skip it until the cooldown expires.
func (rc *RingClient) markDown(id string) {
	rc.mu.Lock()
	rc.down[id] = time.Now().Add(rc.cooldown)
	rc.mu.Unlock()
}

func (rc *RingClient) isDown(id string) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	until, ok := rc.down[id]
	if !ok {
		return false
	}
	if time.Now().After(until) {
		delete(rc.down, id)
		return false
	}
	return true
}

// ladder returns the key's failover ladder with cooled-down members
// moved to the back (never dropped — if everyone is marked down the
// walk still tries them all).
func (rc *RingClient) ladder(key string) []cluster.Member {
	all := rc.ring.Successors(key, rc.ring.Len())
	up := make([]cluster.Member, 0, len(all))
	var cooled []cluster.Member
	for _, m := range all {
		if rc.isDown(m.ID) {
			cooled = append(cooled, m)
		} else {
			up = append(up, m)
		}
	}
	return append(up, cooled...)
}

// do walks the key's ladder: each rung gets the full per-replica retry
// policy (429 shed and 503 stale retry in place); a transport error
// marks the rung down and falls through to the successor. The response
// vector is checked against the min vector demanded at send time — a
// violation counts on serve/ring/stale_served.
func (rc *RingClient) do(ctx context.Context, key string, call func(*Client) (PlanResult, error)) (PlanResult, error) {
	demanded := rc.demand.String()
	var lastErr error
	for i, m := range rc.ladder(key) {
		if err := ctx.Err(); err != nil {
			return PlanResult{}, err
		}
		if i > 0 {
			rc.reg.Counter("serve/ring/failovers").Inc()
		}
		res, err := call(rc.clients[m.ID])
		if err != nil {
			rc.markDown(m.ID)
			lastErr = err
			continue
		}
		if res.OK() && demanded != "" {
			rc.checkServedVector(res.Vector, demanded)
		}
		return res, nil
	}
	rc.reg.Counter("serve/ring/all_down").Inc()
	return PlanResult{}, fmt.Errorf("serve: all ring members failed for key: %w", lastErr)
}

// checkServedVector verifies a served plan's vector dominates what the
// client demanded. The server enforces this; the client re-checks so a
// staleness bug is caught at the oracle, not trusted.
func (rc *RingClient) checkServedVector(served, demanded string) {
	want, err := cluster.ParseVector(demanded)
	if err != nil {
		return
	}
	got, err := cluster.ParseVector(served)
	if err != nil || !got.Dominates(want) {
		rc.reg.Counter("serve/ring/stale_served").Inc()
	}
}

// PlanPair requests a point-to-point plan from the replica owning it.
func (rc *RingClient) PlanPair(ctx context.Context, req PairRequest) (PlanResult, error) {
	return rc.do(ctx, req.cacheKey(), func(c *Client) (PlanResult, error) {
		return c.PlanPair(ctx, req)
	})
}

// PlanGroup requests a group-coupling plan from the replica owning it.
func (rc *RingClient) PlanGroup(ctx context.Context, req GroupRequest) (PlanResult, error) {
	return rc.do(ctx, req.cacheKey(), func(c *Client) (PlanResult, error) {
		return c.PlanGroup(ctx, req)
	})
}

// PlanAgg requests an I/O aggregation plan from the replica owning it.
func (rc *RingClient) PlanAgg(ctx context.Context, req AggRequest) (PlanResult, error) {
	return rc.do(ctx, req.cacheKey(), func(c *Client) (PlanResult, error) {
		return c.PlanAgg(ctx, req)
	})
}

// Simulate runs a declarative scenario on the replica owning it.
func (rc *RingClient) Simulate(ctx context.Context, cfg scenario.Config) (PlanResult, error) {
	canon, err := json.Marshal(cfg)
	if err != nil {
		return PlanResult{}, err
	}
	return rc.do(ctx, simCacheKey(cfg, canon), func(c *Client) (PlanResult, error) {
		return c.Simulate(ctx, cfg)
	})
}

// Fault posts a fault event to one replica — rotating across the
// membership so origination (and therefore gossip dissemination) is
// exercised everywhere — and merges the acknowledged vector into the
// shared min vector. Returns the originating replica's new epoch.
func (rc *RingClient) Fault(ctx context.Context, ev FaultEvent) (uint64, error) {
	members := rc.ring.Members()
	rc.mu.Lock()
	start := rc.faultRR
	rc.faultRR++
	rc.mu.Unlock()
	var lastErr error
	for i := 0; i < len(members); i++ {
		m := members[(start+i)%len(members)]
		if rc.isDown(m.ID) && i < len(members)-1 {
			continue
		}
		epoch, err := rc.clients[m.ID].Fault(ctx, ev)
		if err == nil {
			return epoch, nil
		}
		if ctx.Err() != nil {
			return 0, err
		}
		rc.markDown(m.ID)
		lastErr = err
	}
	return 0, fmt.Errorf("serve: fault event failed on every replica: %w", lastErr)
}

// Transfer runs one resilient transfer session, routed by session ID.
// If the owning replica dies mid-session, the next successor gets a
// re-POST of the same idempotent ID — the session re-arms there exactly
// once; the dead replica's partial run never reported, so the caller
// still sees exactly one terminal report.
func (rc *RingClient) Transfer(ctx context.Context, req TransferRequest, opts TransferOpts) (TransferOutcome, error) {
	if req.ID == "" {
		req.ID = randomSessionID()
	}
	// Per-rung attempts must be bounded, or a dead owner would absorb
	// the whole budget before the ladder advances.
	if opts.Backoff == (RetryPolicy{}) {
		opts.Backoff = rc.retry
	}
	if opts.Backoff.MaxAttempts == 0 || opts.Backoff.MaxAttempts > 4 {
		opts.Backoff.MaxAttempts = 4
	}
	out := TransferOutcome{SessionID: req.ID}
	var lastErr error
	for i, m := range rc.ladder("session|" + req.ID) {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if i > 0 {
			rc.reg.Counter("serve/ring/session_reroutes").Inc()
		}
		o, err := rc.clients[m.ID].Transfer(ctx, req, opts)
		// Merge attempt bookkeeping across rungs; the terminal report (if
		// any) comes from exactly one replica.
		out.Frames = o.Frames
		out.Resumes += o.Resumes
		out.Restarts += o.Restarts
		if o.Trace != "" {
			out.Trace = o.Trace
		}
		if err == nil {
			out.Report, out.Err = o.Report, o.Err
			out.Faults, out.Pushed, out.Members = o.Faults, o.Pushed, o.Members
			return out, nil
		}
		rc.markDown(m.ID)
		lastErr = err
	}
	rc.reg.Counter("serve/ring/all_down").Inc()
	return out, fmt.Errorf("serve: transfer %s failed on every replica: %w", req.ID, lastErr)
}

// Health probes every member; it returns the IDs that answered.
func (rc *RingClient) Health(ctx context.Context) []string {
	var up []string
	for _, m := range rc.ring.Members() {
		if rc.clients[m.ID].Health(ctx) == nil {
			up = append(up, m.ID)
		}
	}
	return up
}

// MetricsAll fetches every live member's /metrics snapshot, keyed by
// replica ID (dead members are skipped).
func (rc *RingClient) MetricsAll(ctx context.Context) map[string]obs.MetricsSnapshot {
	out := make(map[string]obs.MetricsSnapshot)
	for _, m := range rc.ring.Members() {
		if snap, err := rc.clients[m.ID].Metrics(ctx); err == nil {
			out[m.ID] = snap
		}
	}
	return out
}

// ClusterStatusAll fetches every live member's GET /v1/cluster view,
// keyed by replica ID.
func (rc *RingClient) ClusterStatusAll(ctx context.Context) map[string]ClusterStatus {
	out := make(map[string]ClusterStatus)
	for _, m := range rc.ring.Members() {
		var st ClusterStatus
		if err := rc.clients[m.ID].callJSON(ctx, http.MethodGet, "/v1/cluster", nil, &st); err == nil {
			out[m.ID] = st
		}
	}
	return out
}
