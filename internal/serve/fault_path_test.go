package serve_test

// The one fault path: every daemon is a cluster member, and a daemon
// without peers is a cluster of one. These tests pin what that path
// promises on a single daemon: one snapshot per acknowledged event, no
// vector demand from a plain Client, and a gossip wire that applies only
// the links POST /v1/fault accepts.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
)

// postJSON POSTs body to url and decodes a 200 reply into out (when
// non-nil), returning the status code (0 after a transport or decode
// error, which it reports). Safe to call from any goroutine.
func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Error(err)
			return 0
		}
	}
	return resp.StatusCode
}

// clusterStatus fetches a daemon's GET /v1/cluster view.
func clusterStatus(t *testing.T, base string) serve.ClusterStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.ClusterStatus
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFaultAcksOwnEpochs: concurrent fault posts against one daemon each
// get their own snapshot. 16 posters × 20 posts yield 320 distinct ack
// epochs, the daemon ends at epoch 320, and every ack's vector dominates
// the acks its poster got before it.
func TestFaultAcksOwnEpochs(t *testing.T) {
	const posters, posts = 16, 20
	for _, cfg := range []serve.Config{{}, {ReplicaID: "r0"}} {
		t.Run("replica="+cfg.ReplicaID, func(t *testing.T) {
			srv := serve.New(cfg)
			hs := httptest.NewServer(srv.Handler())
			defer func() { hs.Close(); srv.Close() }()

			type ack struct {
				Epoch  uint64 `json:"epoch"`
				Vector string `json:"vector"`
			}
			acks := make([][]ack, posters)
			var wg sync.WaitGroup
			for p := 0; p < posters; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for k := 0; k < posts; k++ {
						body := fmt.Sprintf(`{"links":[{"node":%d,"dim":%d,"dir":1}]}`, (p*posts+k)%128, k%5)
						var a ack
						if code := postJSON(t, hs.URL+"/v1/fault", body, &a); code != http.StatusOK {
							t.Errorf("poster %d post %d: status %d", p, k, code)
							return
						}
						acks[p] = append(acks[p], a)
					}
				}(p)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			epochs := map[uint64]bool{}
			for p, as := range acks {
				var prev cluster.Vector
				for k, a := range as {
					epochs[a.Epoch] = true
					v, err := cluster.ParseVector(a.Vector)
					if err != nil {
						t.Fatalf("poster %d ack %d: %v", p, k, err)
					}
					if !v.Dominates(prev) {
						t.Fatalf("poster %d ack %d: vector %q does not dominate the earlier %q", p, k, a.Vector, prev)
					}
					prev = v
				}
			}
			if len(epochs) != posters*posts {
				t.Errorf("%d distinct ack epochs, want %d", len(epochs), posters*posts)
			}
			if got := srv.Epoch(); got != posters*posts {
				t.Errorf("server epoch %d, want %d", got, posters*posts)
			}
		})
	}
}

// TestPlainClientSurvivesRestart pins that a plain Client demands no
// fault vector: after posting faults to a daemon, it keeps planning and
// posting against a replacement daemon on the same address, whose log
// starts empty. A client that carried its acknowledged vector forward
// would be refused with 503 on every request.
func TestPlainClientSurvivesRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	start := func(ln net.Listener) func() {
		srv := serve.New(serve.Config{})
		hs := &httptest.Server{Listener: ln, Config: &http.Server{Handler: srv.Handler()}}
		hs.Start()
		return func() { hs.Close(); srv.Close() }
	}
	stop := start(ln)
	c, err := serve.NewClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Transport errors while the old daemon's connections close retry; a
	// 503 surfaces after the last attempt.
	c.SetRetryPolicy(serve.RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond, RetryConn: true})
	ctx := context.Background()
	req := serve.PairRequest{Shape: testShape, Src: 0, Dst: 97, Bytes: 4 << 20}
	for k := 0; k < 3; k++ {
		if _, err := c.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{{Node: k, Dim: 0, Dir: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := c.PlanPair(ctx, req); err != nil || !res.OK() || res.Vector != "bgqd:3" {
		t.Fatalf("before restart: %v status %d vector %q", err, res.Status, res.Vector)
	}

	stop()
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s for the replacement daemon: %v", addr, err)
	}
	defer start(ln)()

	res, err := c.PlanPair(ctx, req)
	if err != nil || !res.OK() {
		t.Fatalf("plan after restart: %v status %d %s", err, res.Status, res.Err)
	}
	if res.Vector != "" {
		t.Fatalf("replacement daemon served at vector %q, want the empty vector", res.Vector)
	}
	epoch, err := c.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{{Node: 9, Dim: 1, Dir: -1}}})
	if err != nil || epoch != 1 {
		t.Fatalf("fault after restart: epoch %d, %v", epoch, err)
	}
	if res, err := c.PlanPair(ctx, req); err != nil || !res.OK() {
		t.Fatalf("plan after restart and fault: %v status %d %s", err, res.Status, res.Err)
	}
}

// TestGossipRejectsBadFaultLinks: POST /v1/gossip applies only the
// links POST /v1/fault accepts. A message carrying any bad link is
// refused with 400 whole — its good events are not applied either.
func TestGossipRejectsBadFaultLinks(t *testing.T) {
	srv := serve.New(serve.Config{ReplicaID: "r0"})
	hs := httptest.NewServer(srv.Handler())
	defer func() { hs.Close(); srv.Close() }()

	if code := postJSON(t, hs.URL+"/v1/fault", `{"links":[{"node":-5,"dim":0,"dir":7}]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad fault link: status %d, want 400", code)
	}
	good := `{"origin":"x","seq":1,"lt":1,"links":[{"node":2,"dim":1,"dir":1}]}`
	for _, bad := range []string{
		`{"node":-5,"dim":-2,"dir":7}`,
		`{"node":1,"dim":0,"dir":0}`,
		`{"node":-1,"dim":0,"dir":1}`,
		`{"node":1,"dim":-1,"dir":-1}`,
	} {
		body := `{"from":"x","digest":{},"events":[` + good + `,{"origin":"y","seq":1,"lt":2,"links":[` + bad + `]}]}`
		if code := postJSON(t, hs.URL+"/v1/gossip", body, nil); code != http.StatusBadRequest {
			t.Errorf("gossip event with link %s: status %d, want 400", bad, code)
		}
	}
	if st := clusterStatus(t, hs.URL); st.Epoch != 0 || st.Events != 0 || st.FaultLinks != 0 || st.Vector != "" {
		t.Fatalf("rejected gossip was applied: %+v", st)
	}

	var reply cluster.Message
	body := `{"from":"x","digest":{},"events":[` + good + `]}`
	if code := postJSON(t, hs.URL+"/v1/gossip", body, &reply); code != http.StatusOK {
		t.Fatalf("good gossip: status %d", code)
	}
	if st := clusterStatus(t, hs.URL); st.Epoch != 1 || st.Events != 1 || st.FaultLinks != 1 || st.Vector != "x:1" {
		t.Fatalf("good gossip not applied: %+v", st)
	}
	if !reply.Digest.Equal(cluster.Vector{"x": 1}) {
		t.Fatalf("gossip reply digest %v, want x:1", reply.Digest)
	}
}
