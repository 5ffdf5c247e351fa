package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
)

// testCluster is an in-process bgqd cluster: n clustered daemons on
// real TCP listeners (so peer URLs exist before serve.New runs), plus
// a ring client over them.
type testCluster struct {
	servers []*serve.Server
	https   []*httptest.Server
	members []cluster.Member
	ring    *serve.RingClient
}

// newTestCluster pre-binds n listeners, builds each daemon with the
// other n-1 as peers, and mounts the handlers.
func newTestCluster(t *testing.T, n int, mut func(i int, cfg *serve.Config)) *testCluster {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := serve.Config{
			ReplicaID:      fmt.Sprintf("r%d", i),
			Peers:          peers,
			GossipInterval: 25 * time.Millisecond,
			GossipSeed:     int64(i + 1),
		}
		if mut != nil {
			mut(i, &cfg)
		}
		srv := serve.New(cfg)
		hs := &httptest.Server{
			Listener: listeners[i],
			Config:   &http.Server{Handler: srv.Handler()},
		}
		hs.Start()
		tc.servers = append(tc.servers, srv)
		tc.https = append(tc.https, hs)
		tc.members = append(tc.members, cluster.Member{ID: cfg.ReplicaID, Addr: urls[i]})
	}
	t.Cleanup(func() {
		for i := range tc.https {
			tc.https[i].Close()
			tc.servers[i].Close()
		}
	})
	ring, err := serve.NewRingClient(tc.members)
	if err != nil {
		t.Fatal(err)
	}
	tc.ring = ring
	return tc
}

// kill stops replica i's HTTP server (the daemon object stays for
// Cleanup, but no longer answers — a crashed replica as clients see it).
func (tc *testCluster) kill(i int) {
	tc.https[i].CloseClientConnections()
	tc.https[i].Close()
}

// waitConverged polls every live replica's /v1/cluster until all report
// a vector dominating want.
func (tc *testCluster) waitConverged(t *testing.T, want string, timeout time.Duration) {
	t.Helper()
	wantV, err := cluster.ParseVector(want)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(timeout)
	for {
		sts := tc.ring.ClusterStatusAll(context.Background())
		ok := len(sts) > 0
		for _, st := range sts {
			got, perr := cluster.ParseVector(st.Vector)
			if perr != nil || !got.Dominates(wantV) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never converged to %q: %+v", want, sts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterDifferential200Seeds is the headline differential gate:
// 200 seeded requests, each routed to its hash-selected replica by the
// ring client and compared byte-for-byte against a direct
// single-threaded planner call — with fault events (including repairs)
// interleaved every 25th seed, posted round-robin across replicas. The
// min-vector discipline means every post-fault plan must reflect the
// fault no matter which replica serves it.
func TestClusterDifferential200Seeds(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	size := 2 * 2 * 4 * 4 * 2 // testShape node count

	var faults []scenario.FailLink // client-side mirror of the cluster fault set
	served := map[string]int{}
	for seed := 0; seed < 200; seed++ {
		if seed > 0 && seed%25 == 0 {
			if len(faults) >= 3 {
				// A repair: Clear resets the whole set (and must propagate
				// as an event, not as absence of one).
				if _, err := tc.ring.Fault(ctx, serve.FaultEvent{Clear: true}); err != nil {
					t.Fatalf("seed %d: clear: %v", seed, err)
				}
				faults = faults[:0]
			} else {
				fl := scenario.FailLink{Node: rng.Intn(size), Dim: rng.Intn(5), Dir: 1}
				if _, err := tc.ring.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{fl}}); err != nil {
					t.Fatalf("seed %d: fault: %v", seed, err)
				}
				faults = append(faults, fl)
			}
		}
		src := rng.Intn(size)
		dst := rng.Intn(size)
		if dst == src {
			dst = (src + 1) % size
		}
		req := serve.PairRequest{
			Shape: testShape,
			Src:   src,
			Dst:   dst,
			Bytes: int64(1+rng.Intn(16)) << 20,
		}
		res, err := tc.ring.PlanPair(ctx, req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK() {
			t.Fatalf("seed %d: status %d: %s", seed, res.Status, res.Err)
		}
		served[res.Replica]++
		wantWire, _ := directPairWire(t, req, faults)
		want, err := json.Marshal(wantWire)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Plan, want) {
			t.Fatalf("seed %d (replica %s, %d faults): ring-served plan differs from direct planner\nserved: %s\ndirect: %s",
				seed, res.Replica, len(faults), res.Plan, want)
		}
	}
	if tc.ring.StaleServed() != 0 {
		t.Fatalf("stale_served = %d, want 0", tc.ring.StaleServed())
	}
	// The ring must actually shard: every replica served some requests.
	if len(served) != 3 {
		t.Fatalf("only %d replicas served requests: %v", len(served), served)
	}
	t.Logf("per-replica served counts: %v", served)
}

// TestClusterGossipConvergence posts a fault to exactly ONE replica and
// asserts the others converge by gossip alone — then that a plan from a
// vector-agnostic client (no min-vector stamped) reflects the fault on
// every replica.
func TestClusterGossipConvergence(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ctx := context.Background()

	req := serve.PairRequest{Shape: testShape, Src: 0, Dst: 97, Bytes: 4 << 20}
	res, err := tc.ring.Client("r0").PlanPair(ctx, req)
	if err != nil || !res.OK() {
		t.Fatalf("pre-fault plan: %v status %d", err, res.Status)
	}
	var pre serve.PairPlan
	if err := json.Unmarshal(res.Plan, &pre); err != nil {
		t.Fatal(err)
	}
	target := pre.Flows[0].Links[0]
	fl, ok := linkToFail(t, testShape, target)
	if !ok {
		t.Fatalf("cannot invert link id %d", target)
	}

	// Post to r1 only, via its direct client.
	if _, err := tc.ring.Client("r1").Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{fl}}); err != nil {
		t.Fatal(err)
	}
	tc.waitConverged(t, "r1:1", 5*time.Second)

	wantWire, _ := directPairWire(t, req, []scenario.FailLink{fl})
	want, err := json.Marshal(wantWire)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"r0", "r1", "r2"} {
		// Fresh clients: no min-vector, so any stale replica would happily
		// serve a pre-fault plan — convergence itself is under test.
		c, err := serve.NewClient(tc.https[id[1]-'0'].URL)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.PlanPair(ctx, req)
		if err != nil || !res.OK() {
			t.Fatalf("%s: post-fault plan: %v status %d", id, err, res.Status)
		}
		if !bytes.Equal(res.Plan, want) {
			t.Errorf("%s: post-fault plan does not route around the gossiped fault", id)
		}
		if res.Replica != id {
			t.Errorf("served by %q, want %q", res.Replica, id)
		}
	}
}

// postDemanding POSTs a pair plan request to base carrying the raw
// X-Bgq-Min-Vector header minVec and returns the status code.
func postDemanding(t *testing.T, base, minVec string) int {
	t.Helper()
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/plan/pair",
		bytes.NewReader([]byte(`{"shape":"2x2x4x4x2","src":0,"dst":97,"bytes":4194304}`)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Bgq-Min-Vector", minVec)
	hres, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	return hres.StatusCode
}

// TestClusterStaleReject pins the staleness gate: a replica that has
// not applied a demanded vector refuses to serve (503), a malformed
// demand is refused with 400, and a peerless default daemon — a cluster
// of one — enforces the same gate.
func TestClusterStaleReject(t *testing.T) {
	// Two isolated "clusters of one": r0 and r1 know no peers, so a
	// fault on r0 NEVER reaches r1.
	tc := newTestCluster(t, 2, func(i int, cfg *serve.Config) { cfg.Peers = nil })
	ctx := context.Background()

	c0 := tc.ring.Client("r0")
	fl := scenario.FailLink{Node: 1, Dim: 0, Dir: 1}
	if _, err := c0.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{fl}}); err != nil {
		t.Fatal(err)
	}
	if got := tc.ring.MinVector(); got != "r0:1" {
		t.Fatalf("ring min vector = %q, want r0:1 (fault ack must establish the demand)", got)
	}

	// A direct request to r1 demanding r0:1 must be refused, not served
	// stale.
	if code := postDemanding(t, tc.https[1].URL, "r0:1"); code != http.StatusServiceUnavailable {
		t.Fatalf("stale replica answered status %d, want 503", code)
	}
	if got := tc.servers[1].Registry().Counter("serve/stale_rejects").Value(); got == 0 {
		t.Fatal("serve/stale_rejects not counted")
	}
	// r0 itself HAS applied r0:1 and must serve.
	req := serve.PairRequest{Shape: testShape, Src: 0, Dst: 97, Bytes: 4 << 20}
	res, err := c0.PlanPair(ctx, req) // c0 demands r0:1 through the ring's shared vector
	if err != nil || !res.OK() {
		t.Fatalf("originating replica refused its own vector: %v status %d", err, res.Status)
	}

	// A malformed demand is a client bug: 400, not 503.
	if code := postDemanding(t, tc.https[1].URL, "not-a-vector"); code != http.StatusBadRequest {
		t.Fatalf("malformed min-vector: status %d, want 400", code)
	}

	// A default daemon without peers is a cluster of one under the same
	// gate: it serves what it has applied and refuses the rest.
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer func() { hs.Close(); srv.Close() }()
	plain, err := serve.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{fl}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		minVec string
		want   int
	}{
		{"bgqd:1", http.StatusOK},
		{"bgqd:2", http.StatusServiceUnavailable},
		{"r0:1", http.StatusServiceUnavailable},
		{"not-a-vector", http.StatusBadRequest},
	} {
		if code := postDemanding(t, hs.URL, c.minVec); code != c.want {
			t.Errorf("peerless daemon demanded %q: status %d, want %d", c.minVec, code, c.want)
		}
	}
}

// TestClusterStaleWindowRides verifies the happy path of the same gate:
// with gossip connected, a short retry budget is enough — the client
// never sees the 503s that may fire inside the propagation window.
func TestClusterStaleWindowRides(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ctx := context.Background()
	req := serve.PairRequest{Shape: testShape, Src: 3, Dst: 64, Bytes: 8 << 20}
	for i := 0; i < 5; i++ {
		fl := scenario.FailLink{Node: 10 + i, Dim: i % 5, Dir: 1}
		if _, err := tc.ring.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{fl}}); err != nil {
			t.Fatal(err)
		}
		res, err := tc.ring.PlanPair(ctx, req)
		if err != nil || !res.OK() {
			t.Fatalf("round %d: %v status %d %s", i, err, res.Status, res.Err)
		}
	}
	if tc.ring.StaleServed() != 0 {
		t.Fatalf("stale_served = %d, want 0", tc.ring.StaleServed())
	}
}

// TestClusterSessionReroute pins satellite 3's session half: when the
// replica owning a session ID is dead, the ring client re-POSTs the
// same idempotent ID to the successor — the session runs exactly once,
// on exactly one live replica.
func TestClusterSessionReroute(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	req := serve.TransferRequest{ID: "s-reroute-test", Shape: testShape, Src: 0, Dst: 97, Bytes: 4 << 20}
	// Find and kill the owner BEFORE the transfer starts: the first POST
	// hits a dead socket and must fail over.
	owner := ""
	for i, m := range tc.members {
		if tc.ringOwner("session|"+req.ID) == m.ID {
			owner = m.ID
			tc.kill(i)
			break
		}
	}
	if owner == "" {
		t.Fatal("no owner found for session key")
	}

	out, err := tc.ring.Transfer(ctx, req, serve.TransferOpts{})
	if err != nil {
		t.Fatalf("rerouted transfer failed: %v", err)
	}
	if out.Err != "" || len(out.Report) == 0 {
		t.Fatalf("transfer did not complete: err=%q report=%dB", out.Err, len(out.Report))
	}

	// Exactly one live replica executed it; no duplicates anywhere.
	executed := int64(0)
	for i, srv := range tc.servers {
		if tc.members[i].ID == owner {
			continue // killed; its registry saw nothing
		}
		executed += srv.Registry().Counter("serve/sessions_executed").Value()
	}
	if executed != 1 {
		t.Fatalf("sessions_executed across live replicas = %d, want exactly 1", executed)
	}
	if got := tc.ring.Registry().Counter("serve/ring/session_reroutes").Value(); got == 0 {
		t.Fatal("reroute not counted — did the owner die before the POST?")
	}
}

// ringOwner resolves which member owns a key on a fresh ring built from
// the same membership (determinism is itself part of the contract).
func (tc *testCluster) ringOwner(key string) string {
	r := cluster.NewRing(0, tc.members...)
	m, _ := r.Lookup(key)
	return m.ID
}

// TestClusterKillReplicaDifferential is the chaos version of the
// differential gate: kill one replica partway through a seeded request
// stream (with interleaved faults) and keep comparing every served
// plan against the oracle. Failovers are allowed; stale or divergent
// plans are not.
func TestClusterKillReplicaDifferential(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	size := 2 * 2 * 4 * 4 * 2

	var faults []scenario.FailLink
	for seed := 0; seed < 60; seed++ {
		if seed == 20 {
			tc.kill(2) // r2 crashes mid-run
		}
		if seed%15 == 10 && len(faults) < 3 {
			fl := scenario.FailLink{Node: rng.Intn(size), Dim: rng.Intn(5), Dir: -1}
			if _, err := tc.ring.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{fl}}); err != nil {
				t.Fatalf("seed %d: fault: %v", seed, err)
			}
			faults = append(faults, fl)
		}
		src, dst := rng.Intn(size), rng.Intn(size)
		if dst == src {
			dst = (src + 1) % size
		}
		req := serve.PairRequest{Shape: testShape, Src: src, Dst: dst, Bytes: int64(1+rng.Intn(8)) << 20}
		res, err := tc.ring.PlanPair(ctx, req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK() {
			t.Fatalf("seed %d: status %d: %s", seed, res.Status, res.Err)
		}
		if seed >= 20 && res.Replica == "r2" {
			t.Fatalf("seed %d: served by killed replica", seed)
		}
		wantWire, _ := directPairWire(t, req, faults)
		want, _ := json.Marshal(wantWire)
		if !bytes.Equal(res.Plan, want) {
			t.Fatalf("seed %d (replica %s): plan diverged after replica kill", seed, res.Replica)
		}
	}
	if tc.ring.StaleServed() != 0 {
		t.Fatalf("stale_served = %d, want 0", tc.ring.StaleServed())
	}
}

// TestClusterConcurrentFaultPosts hammers concurrent fault posts on
// DIFFERENT replicas while plans stream through the ring (run under
// -race via the tier-1 serve race list). Afterwards every replica must
// converge to one fault set and serve the same oracle plan.
func TestClusterConcurrentFaultPosts(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ctx := context.Background()

	var wg sync.WaitGroup
	var links [2][]scenario.FailLink
	for g := 0; g < 2; g++ {
		for p := 0; p < 4; p++ {
			links[g] = append(links[g], scenario.FailLink{Node: 32*g + p, Dim: p % 5, Dir: 1})
		}
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := tc.ring.Client(fmt.Sprintf("r%d", g))
			for _, fl := range links[g] {
				if _, err := c.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{fl}}); err != nil {
					t.Errorf("fault on r%d: %v", g, err)
					return
				}
			}
		}(g)
	}
	// Plan traffic racing the fault storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			req := serve.PairRequest{Shape: testShape, Src: i % 64, Dst: 96 + i%32, Bytes: 1 << 20}
			if _, err := tc.ring.PlanPair(ctx, req); err != nil {
				t.Errorf("plan %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	tc.waitConverged(t, "r0:4,r1:4", 5*time.Second)

	// All replicas now hold the same 8 links (order is canonical but
	// link-failure application commutes, so the oracle can use any
	// order).
	all := append(append([]scenario.FailLink(nil), links[0]...), links[1]...)
	req := serve.PairRequest{Shape: testShape, Src: 5, Dst: 120, Bytes: 4 << 20}
	wantWire, _ := directPairWire(t, req, all)
	want, _ := json.Marshal(wantWire)
	for i := range tc.servers {
		c, err := serve.NewClient(tc.https[i].URL)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.PlanPair(ctx, req)
		if err != nil || !res.OK() {
			t.Fatalf("r%d: %v status %d", i, err, res.Status)
		}
		if !bytes.Equal(res.Plan, want) {
			t.Errorf("r%d: converged plan differs from oracle over the union fault set", i)
		}
	}
}

// TestClusterStatusEndpoint sanity-checks GET /v1/cluster on a
// two-replica cluster and on a peerless default daemon, which reports
// itself as replica bgqd with no peers.
func TestClusterStatusEndpoint(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	ctx := context.Background()
	if _, err := tc.ring.Client("r0").Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{{Node: 3, Dim: 1, Dir: 1}}}); err != nil {
		t.Fatal(err)
	}
	sts := tc.ring.ClusterStatusAll(ctx)
	if len(sts) != 2 {
		t.Fatalf("cluster status from %d replicas, want 2", len(sts))
	}
	st := sts["r0"]
	if st.Replica != "r0" || st.Events == 0 || st.FaultLinks != 1 || st.Vector == "" {
		t.Fatalf("bad status: %+v", st)
	}
	if len(st.Peers) != 1 {
		t.Fatalf("peers = %v, want 1 entry", st.Peers)
	}

	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer func() { hs.Close(); srv.Close() }()
	plain, err := serve.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{{Node: 3, Dim: 1, Dir: 1}}}); err != nil {
		t.Fatal(err)
	}
	one := clusterStatus(t, hs.URL)
	if one.Replica != "bgqd" || len(one.Peers) != 0 || one.Vector != "bgqd:1" ||
		one.Events != 1 || one.FaultLinks != 1 || one.Epoch != 1 {
		t.Fatalf("peerless daemon status %+v, want replica bgqd, no peers, vector bgqd:1", one)
	}
}
